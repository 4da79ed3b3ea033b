package experiments_test

// The fast shape suite: every registered figure-shape assertion runs
// against the same reduced sweep the experiment tests use and shares
// their run cache, experiments.SharedRuns. This external test package
// compiles into the same test binary as the package's own tests, which
// run first and leave that value warm. Heavy assertions — the ones
// re-running oracle or page-size sweeps — are skipped under -short,
// mirroring the experiment tests they shadow.
// The full 1..32 sweep lives behind the fullsweep build tag in
// shape_full_test.go.

import (
	"os"
	"testing"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/experiments/shape"
)

// fastOptions mirrors testOptions in experiments_test.go: the
// 13-point sweep and the shared run cache keep tier-1 cheap while
// preserving every curve's shape. With FDT_SAMPLED=1 in the environment every run
// executes in sampled mode — CI's sampled-shapes job uses this to
// assert the paper's figure shapes survive steady-state
// extrapolation (the errors TestSampledErrorGate bounds).
func fastOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Runs = experiments.SharedRuns
	o.SweepThreads = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32}
	if os.Getenv("FDT_SAMPLED") != "" {
		o.Mode = core.SampledMode()
	}
	return o
}

func TestShapeSuite(t *testing.T) {
	o := fastOptions()
	for _, a := range shape.Assertions() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			if a.Heavy && testing.Short() {
				t.Skip("heavy assertion (full experiment re-run)")
			}
			if err := a.Check(o); err != nil {
				t.Errorf("claim: %s\nviolation: %v", a.Claim, err)
			}
		})
	}
}

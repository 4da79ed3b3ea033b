package workloads

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// runMode runs the named workload under a static team in mode md on
// the default machine.
func runMode(t *testing.T, name string, threads int, md core.Mode) core.RunResult {
	t.Helper()
	info, ok := ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	m := machine.MustNew(machine.DefaultConfig())
	ctl := core.NewController(core.Static{N: threads})
	ctl.Mode = md
	return ctl.Run(m, info.Factory(m))
}

// TestMultiSpanExtrasSampleExactly runs synthetic extras whose
// behaviour changes at span boundaries in sampled mode. Without the
// exact-only marker their fast-forwards jump the boundaries and carry
// one span's profile across the next (busburst static-16 read -90%,
// eqclash static-32 +173%, phaseshift static-1 -49%); with it, sampled
// mode must report exactly the exact run's cycles. csdep, one
// stationary span, must keep sampling.
func TestMultiSpanExtrasSampleExactly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads int
	}{{"busburst", 16}, {"gauntlet/eqclash", 32}, {"phaseshift", 1}} {
		exact := runMode(t, tc.name, tc.threads, core.ExactMode())
		sampled := runMode(t, tc.name, tc.threads, core.SampledMode())
		if sampled.TotalCycles != exact.TotalCycles {
			t.Errorf("%s static-%d: sampled %d cycles, exact %d", tc.name, tc.threads, sampled.TotalCycles, exact.TotalCycles)
		}
		if s := sampled.Sampled; s == nil || s.SkippedIters != 0 {
			t.Errorf("%s static-%d: sampled stats %v, want no skipped iterations", tc.name, tc.threads, s)
		}
	}
	if s := runMode(t, "gauntlet/csdep", 8, core.SampledMode()).Sampled; s == nil || s.SkippedIters == 0 {
		t.Errorf("csdep static-8: sampled stats %v, want skipped iterations", s)
	}
}

// TestMTwisterGenSamplesExactly runs mtwister in sampled mode: its
// generator kernel is marked exact-only (its stores warm the
// transform's input), so its cycles must equal the exact run's.
func TestMTwisterGenSamplesExactly(t *testing.T) {
	exact := runMode(t, "mtwister", 8, core.ExactMode())
	sampled := runMode(t, "mtwister", 8, core.SampledMode())
	if got, want := sampled.Kernels[0].Cycles, exact.Kernels[0].Cycles; got != want {
		t.Errorf("mtwister/gen static-8: sampled %d cycles, exact %d", got, want)
	}
}

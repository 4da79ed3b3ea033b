package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// derivePolicies are the placements the run cache may derive from one
// another's training records.
var derivePolicies = []string{"sat", "bat", "sat+bat"}

// checkDerivedIdentity places SAT, BAT and SAT+BAT for each workload
// through RunSweepJob on a fresh run cache, at every bandwidth and in
// both modes, then simulates every placement again directly on a fresh
// machine and wants byte-identical JSON. It returns how many
// placements the cache derived and how many it placed.
func checkDerivedIdentity(t *testing.T, names []string, bandwidths []float64) (derived, placed int) {
	t.Helper()
	for _, mode := range []core.Mode{core.ExactMode(), core.SampledMode()} {
		for _, bw := range bandwidths {
			runs := core.NewRuns(0, nil)
			o := Options{Cfg: machine.DefaultConfig().WithBandwidth(bw), Mode: mode, Runs: runs}
			for _, name := range names {
				res, err := RunSweepJob(o, name, nil, derivePolicies)
				if err != nil {
					t.Fatal(err)
				}
				for i, pname := range derivePolicies {
					ctl, err := core.ParseController(pname)
					if err != nil {
						t.Fatal(err)
					}
					info, _ := workloads.ByName(name)
					want := o.spec(name, info.Factory, ctl).RunOn(machine.MustNew(o.Cfg))
					wb, _ := json.Marshal(want)
					gb, _ := json.Marshal(res.Policies[i])
					if !bytes.Equal(wb, gb) {
						t.Errorf("%s, %s, bandwidth %g, sampled=%v: cached run differs from a direct simulation\ncached: %s\ndirect: %s",
							name, pname, bw, mode.Sampled, gb, wb)
					}
				}
			}
			derived += int(runs.Derived())
			placed += len(names) * len(derivePolicies)
			if got, want := runs.Computes(), uint64(len(names)*len(derivePolicies)); got != want {
				t.Errorf("bandwidth %g, sampled=%v: %d computes, want %d (a derived run still counts)", bw, mode.Sampled, got, want)
			}
		}
	}
	return derived, placed
}

// TestDerivedRunsMatchSimulation is the tier-1 slice of the derivation
// identity sweep: two workloads whose SAT and BAT placements the cache
// derives from SAT+BAT, at one bandwidth.
func TestDerivedRunsMatchSimulation(t *testing.T) {
	derived, placed := checkDerivedIdentity(t, []string{"sconv", "bscholes"}, []float64{1})
	t.Logf("%d of %d placements derived", derived, placed)
	if derived == 0 {
		t.Error("no placement was derived: the identity check compared nothing")
	}
}

package core

import (
	"encoding/json"
	"math"
	"testing"

	"fdt/internal/machine"
	"fdt/internal/store"
)

// synthSpec is a named, cacheable run of a synthetic shape.
func synthSpec(sh synthShape, pol Policy, mode Mode) RunSpec {
	return RunSpec{Cfg: machine.DefaultConfig(), Workload: "synth/" + sh.String(), Factory: sh.factory(),
		Control: Control{Policy: pol}, Mode: mode}
}

// TestRunsDeriveSiblings places SAT+BAT, then SAT and BAT, of every
// synthetic shape on one run cache. Every result must match a direct
// simulation byte for byte, some must be derived, and the cache's
// computes and energy must be what simulating every run would give.
func TestRunsDeriveSiblings(t *testing.T) {
	for _, mode := range []Mode{ExactMode(), SampledMode()} {
		runs := NewRuns(0, nil)
		var energy float64
		for _, sh := range synthShapes {
			var comb RunResult
			for _, pol := range []Policy{Combined{}, SAT{}, BAT{}} {
				s := synthSpec(sh, pol, mode)
				got := s.Run(runs)
				m := machine.MustNew(s.Cfg)
				want := s.RunOn(m)
				energy += m.Power.Energy(want.TotalCycles).Total
				gb, _ := json.Marshal(got)
				wb, _ := json.Marshal(want)
				if string(gb) != string(wb) {
					t.Errorf("%s, %s, sampled=%v: cached run differs from a direct simulation\ncached: %s\ndirect: %s",
						sh, pol.Name(), mode.Sampled, gb, wb)
				}
				if pol == (Combined{}) {
					comb = got
				} else if got.Sampled != nil && got.Sampled == comb.Sampled {
					t.Errorf("%s, %s: derived run shares its Sampled stats with SAT+BAT's", sh, pol.Name())
				}
			}
		}
		if runs.Derived() == 0 {
			t.Errorf("sampled=%v: no run was derived", mode.Sampled)
		}
		if got, want := runs.Computes(), uint64(3*len(synthShapes)); got != want {
			t.Errorf("sampled=%v: %d computes, want %d", mode.Sampled, got, want)
		}
		if got := runs.Energy(); math.Abs(got-energy) > 1e-9*energy {
			t.Errorf("sampled=%v: energy %v, want the simulated runs' %v", mode.Sampled, got, energy)
		}
		t.Logf("sampled=%v: %d of %d runs derived", mode.Sampled, runs.Derived(), runs.Computes())
	}
}

// TestRunsDeriveOnlyFromRecords checks what the cache may not derive
// from: a sibling loaded from the store carries no record, and a run
// with a monitor is not derivable. The record counts in the cache's
// byte accounting.
func TestRunsDeriveOnlyFromRecords(t *testing.T) {
	sh := synthShapes[6] // SAT stops where SAT+BAT does, at the same team size
	fresh := NewRuns(0, nil)
	comb := synthSpec(sh, Combined{}, ExactMode()).Run(fresh)
	if _, bytes, _ := fresh.Usage(); bytes <= runResultBytes(comb) {
		t.Errorf("cache bytes %d do not count SAT+BAT's training record", bytes)
	}
	synthSpec(sh, SAT{}, ExactMode()).Run(fresh)
	if fresh.Derived() != 1 {
		t.Fatalf("from a simulated sibling: %d derived, want 1", fresh.Derived())
	}

	st, err := store.Open(t.TempDir(), RunStoreSchema)
	if err != nil {
		t.Fatal(err)
	}
	synthSpec(sh, Combined{}, ExactMode()).Run(NewRuns(0, st))
	loaded := NewRuns(0, st)
	synthSpec(sh, Combined{}, ExactMode()).Run(loaded)
	synthSpec(sh, SAT{}, ExactMode()).Run(loaded)
	if loaded.Derived() != 0 || loaded.Computes() != 1 {
		t.Errorf("from a store-loaded sibling: %d derived, %d computes; want 0 and 1", loaded.Derived(), loaded.Computes())
	}

	s := synthSpec(sh, Combined{}, ExactMode())
	s.Control.Adaptive = true
	if s.Derivable() {
		t.Error("a monitored run reports itself derivable")
	}
}

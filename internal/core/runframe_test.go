package core_test

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// controlNames is every policy name ParseController accepts, one per
// controller shape.
var controlNames = []string{"sat", "bat", "sat+bat", "serial", "static", "static:3", "adaptive", "hillclimb", "hybrid"}

// TestRunFrameReportsBusTraffic: every controller, measured ones
// included, runs inside the one run frame, so a run's BusBusyCycles is
// the machine's bus counter at the end of the run — on ED, a
// bandwidth-bound kernel, never zero.
func TestRunFrameReportsBusTraffic(t *testing.T) {
	info, _ := workloads.ByName("ed")
	cfg := machine.DefaultConfig().WithCores(8)
	for _, name := range controlNames {
		c, err := core.ParseController(name)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.MustNew(cfg)
		res := core.RunSpec{Cfg: cfg, Factory: info.Factory, Control: c}.RunOn(m)
		want := m.Ctrs.Counter(counters.BusBusyCycles).Read()
		if res.BusBusyCycles != want || want == 0 {
			t.Errorf("%s: BusBusyCycles %d, machine bus counter %d (want equal and nonzero)", name, res.BusBusyCycles, want)
		}
	}
}

// TestMeasuredRunAddsEnergy: an uncached hill-climb run folds its
// active-core cycles into the energy total of the run cache that
// simulated it, like every other run.
func TestMeasuredRunAddsEnergy(t *testing.T) {
	info, _ := workloads.ByName("ed")
	cfg := machine.DefaultConfig().WithCores(8)
	runs := core.NewRuns(0, nil)
	res := core.RunSpec{Cfg: cfg, Factory: info.Factory, Control: core.Control{Policy: core.HillClimb{}}}.Run(runs)
	grown := runs.Energy()
	if want := res.AvgActiveCores * float64(res.TotalCycles); grown < 0.999*want {
		t.Errorf("energy total grew by %g, want at least the run's %g active-core cycles", grown, want)
	}
}

// TestValidateAsksThePolicy: a run needs a policy, a measured policy
// takes no monitor, and the hybrid's tuning must be sane.
func TestValidateAsksThePolicy(t *testing.T) {
	cfg := machine.DefaultConfig().WithCores(8)
	for _, tc := range []struct {
		name string
		c    core.Control
		ok   bool
	}{
		{"no policy", core.Control{Adaptive: true}, false},
		{"adaptive", core.Control{Policy: core.Combined{}, Adaptive: true}, true},
		{"hill-climb", core.Control{Policy: core.HillClimb{}}, true},
		{"refined BAT", core.Control{Policy: core.RefinedBAT{}}, true},
		{"hill-climb with monitor", core.Control{Policy: core.HillClimb{}, Adaptive: true}, false},
		{"hybrid with monitor", core.Control{Policy: core.Hybrid{}, Adaptive: true}, false},
		{"hybrid without hysteresis", core.Control{Policy: core.Hybrid{HP: core.HybridParams{ResidualHigh: 0.1, ResidualLow: 0.2}}}, false},
	} {
		err := core.RunSpec{Cfg: cfg, Workload: "ed", Control: tc.c}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestMeasuredSpecNormalizes: a measured policy forces exact execution
// and ignores power parameters, so neither reaches its key.
func TestMeasuredSpecNormalizes(t *testing.T) {
	s := core.RunSpec{Cfg: machine.DefaultConfig().WithCores(8), Workload: "ed", Control: core.Control{Policy: core.HillClimb{}}}
	plain := s.Key()
	s.Mode = core.SampledMode()
	s.Power = &core.PowerParams{Budget: 4, LockState: -1}
	if note := s.ExactNote(); note != "-policy hill-climb forces exact execution (its probes time real chunks)" {
		t.Errorf("ExactNote() = %q", note)
	}
	if got := s.Key(); got != plain {
		t.Errorf("sampled, budgeted key %q differs from the plain key %q", got, plain)
	}
}

package experiments

import (
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// TestAdaptiveRedecidesAtPhaseBoundaries is the tentpole's acceptance
// check: on the phased workload, the Monitor-driven pipeline must
// re-train at both behaviour changes — the critical-section onset at
// iteration 400 and the bandwidth onset at 800 — and beat train-once
// FDT on total cycles and power.
func TestAdaptiveRedecidesAtPhaseBoundaries(t *testing.T) {
	o := testOptions()

	m := machine.MustNew(o.Cfg)
	w := factory("phaseshift")(m)
	ctl := core.NewController(core.Combined{})
	ctl.Adaptive = true
	ad := ctl.Run(m, w)
	if err := w.(interface{ Verify() error }).Verify(); err != nil {
		t.Fatalf("adaptive run computed a wrong result: %v", err)
	}

	k := ad.Kernels[0]
	if k.Retrains != 2 || len(k.Phases) != 3 {
		t.Fatalf("retrains=%d phases=%d, want 2 retrains / 3 phases: %+v",
			k.Retrains, len(k.Phases), k.Phases)
	}
	p := k.Phases
	if p[0].Trigger != "" || p[1].Trigger != "cs" || p[2].Trigger != "bus" {
		t.Errorf("triggers %q/%q/%q, want \"\"/\"cs\"/\"bus\"", p[0].Trigger, p[1].Trigger, p[2].Trigger)
	}
	// Detection lag is bounded by the monitoring granularity: at most
	// two 64-iteration intervals past the boundary (one to cross it,
	// one to read a full drifted interval).
	const lag = 2 * 64
	if p[1].StartIter <= 400 || p[1].StartIter > 400+lag {
		t.Errorf("CS phase detected at %d, want in (400, %d]", p[1].StartIter, 400+lag)
	}
	if p[2].StartIter <= 800 || p[2].StartIter > 800+lag {
		t.Errorf("BW phase detected at %d, want in (800, %d]", p[2].StartIter, 800+lag)
	}
	// The CS phase must run far narrower than the scalable phase.
	if p[1].Decision.Threads >= p[0].Decision.Threads {
		t.Errorf("CS phase kept %d threads (scalable phase: %d)",
			p[1].Decision.Threads, p[0].Decision.Threads)
	}
	// KernelResult invariants: headline decision is phase 0's, totals
	// aggregate the phases.
	if k.Decision != p[0].Decision {
		t.Errorf("kernel decision %+v != first phase's %+v", k.Decision, p[0].Decision)
	}
	wantTrain := p[0].TrainIters + p[1].TrainIters + p[2].TrainIters
	if k.TrainIters != wantTrain {
		t.Errorf("TrainIters %d, want sum of phases %d", k.TrainIters, wantTrain)
	}

	once := o.run("phaseshift", core.Control{Policy: core.Combined{}})
	if len(once.Kernels[0].Phases) != 0 || once.Kernels[0].Retrains != 0 {
		t.Errorf("train-once run recorded phases: %+v", once.Kernels[0])
	}
	if ad.TotalCycles >= once.TotalCycles {
		t.Errorf("adaptive %d cycles not below train-once %d", ad.TotalCycles, once.TotalCycles)
	}
	if ad.AvgActiveCores >= once.AvgActiveCores {
		t.Errorf("adaptive power %.2f not below train-once %.2f", ad.AvgActiveCores, once.AvgActiveCores)
	}
}

// TestAblationAdaptive checks the reported study: train-once row,
// adaptive row, then one row per adaptive phase.
func TestAblationAdaptive(t *testing.T) {
	a := AblationAdaptive(testOptions())
	if len(a.Rows) != 5 {
		t.Fatalf("%d rows, want 5 (train-once, adaptive, 3 phases):\n%s", len(a.Rows), a)
	}
	once, ad := a.Rows[0], a.Rows[1]
	if ad.Cycles >= once.Cycles {
		t.Errorf("adaptive %d cycles not below train-once %d", ad.Cycles, once.Cycles)
	}
	s := a.String()
	for _, want := range []string{"train-once", "adaptive (2 retrains)", "(cs)", "(bus)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

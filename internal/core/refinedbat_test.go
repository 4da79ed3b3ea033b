package core

import (
	"testing"

	"fdt/internal/machine"
)

func TestRefinedBATUnlimitedForComputeBound(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(2000, 2000, 0, 0)
	res := NewController(RefinedBAT{}).Run(m, f(m))
	if got := res.Kernels[0].Decision.Threads; got != 32 {
		t.Errorf("compute-bound kernel got %d threads, want 32", got)
	}
}

func TestRefinedBATAtLeastPlainBAT(t *testing.T) {
	// The refinement corrects sub-linear utilization upward: its
	// prediction must never fall below plain BAT's.
	f := newSynthFactory(2000, 50, 0, 16)
	mPlain := machine.MustNew(machine.DefaultConfig())
	plain := NewController(BAT{}).Run(mPlain, f(mPlain))
	mRef := machine.MustNew(machine.DefaultConfig())
	refined := NewController(RefinedBAT{}).Run(mRef, f(mRef))
	p, r := plain.Kernels[0].Decision.Threads, refined.Kernels[0].Decision.Threads
	if r < p {
		t.Errorf("refined BAT chose %d threads below plain BAT's %d", r, p)
	}
	if r > 24 {
		t.Errorf("refined BAT overshot to %d threads for a bandwidth-bound kernel", r)
	}
}

func TestRefinedBATTrainsMoreThanPlain(t *testing.T) {
	f := newSynthFactory(2000, 50, 0, 16)
	mPlain := machine.MustNew(machine.DefaultConfig())
	plain := NewController(BAT{}).Run(mPlain, f(mPlain))
	mRef := machine.MustNew(machine.DefaultConfig())
	refined := NewController(RefinedBAT{}).Run(mRef, f(mRef))
	if refined.Kernels[0].TrainIters <= plain.Kernels[0].TrainIters {
		t.Errorf("refined BAT trained %d iters, plain %d — confirmation probes missing",
			refined.Kernels[0].TrainIters, plain.Kernels[0].TrainIters)
	}
}

func TestRefinedBATName(t *testing.T) {
	if (RefinedBAT{}).Name() != "BAT-refined" {
		t.Error("name changed")
	}
}

func TestRefinedBATCompletesWork(t *testing.T) {
	// The probes execute real iterations; the run must still cover
	// all of them exactly once (verified by the workload itself in
	// the workloads package; here check chunk accounting).
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(500, 100, 0, 4)
	w := f(m)
	NewController(RefinedBAT{}).Run(m, w)
	k := w.Kernels()[0].(*synthKernel)
	if len(k.chunkTeams) < 2 {
		t.Errorf("only %d chunks ran", len(k.chunkTeams))
	}
}

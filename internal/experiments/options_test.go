package experiments

import (
	"testing"

	"fdt/internal/core"
)

// policyRunWithKernels fabricates a run result for label tests.
func policyRunWithKernels(name string, threads int) core.RunResult {
	return core.RunResult{Kernels: []core.KernelResult{
		{Kernel: name, Decision: core.Decision{Threads: threads}},
	}}
}

func TestDefaultOptionsSweepAllCores(t *testing.T) {
	o := DefaultOptions()
	ts := o.threads()
	if len(ts) != 32 {
		t.Fatalf("default sweep has %d counts, want 32", len(ts))
	}
	for i, n := range ts {
		if n != i+1 {
			t.Fatalf("sweep[%d] = %d, want %d", i, n, i+1)
		}
	}
}

func TestOptionsCustomSweep(t *testing.T) {
	o := DefaultOptions()
	o.SweepThreads = []int{1, 4, 32}
	ts := o.threads()
	if len(ts) != 3 || ts[1] != 4 {
		t.Fatalf("custom sweep not honored: %v", ts)
	}
}

func TestFactoryPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	factory("nonesuch")
}

func TestThreadsLabel(t *testing.T) {
	single := policyRunWithKernels("k", 7)
	if got := threadsLabel(single); got != "7 thread(s)" {
		t.Errorf("single-kernel label = %q", got)
	}
}

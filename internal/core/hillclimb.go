package core

import "fdt/internal/thread"

// HillClimb is the self-tuning processor-allocation baseline from the
// paper's related work (Nguyen et al. [27], Corbalan et al. [6][7]):
// instead of modeling the kernel from single-threaded counters, it
// measures efficiency directly by executing probe chunks at
// increasing team sizes and keeps growing while throughput improves.
//
// The paper's critique — which this implementation lets experiments
// quantify — is that such search "increases with the number of
// possible processor allocations": every probed size executes real
// iterations at a possibly-bad allocation, whereas FDT's single
// single-threaded training loop predicts all sizes at once.
type HillClimb struct {
	// ProbeIters is the number of iterations per probe chunk; zero
	// means max(1, iterations/100).
	ProbeIters int
	// MinGain is the fractional per-iteration speedup a larger team
	// must deliver to keep climbing (default 5%).
	MinGain float64
}

// Name identifies the policy in reports.
func (HillClimb) Name() string { return "hill-climb" }

// runKernel probes doubling team sizes with real chunks while
// throughput improves, then runs the rest at the best size found
// (TrainIters counts the probed iterations).
func (h HillClimb) runKernel(c *thread.Ctx, k Kernel) KernelResult {
	m := c.Machine()
	cores := m.Contexts()
	n := k.Iterations()
	start := c.CPU.CycleCount()

	probe := h.ProbeIters
	if probe <= 0 {
		probe = max(1, n/100)
	}
	minGain := h.MinGain
	if minGain <= 0 {
		minGain = 0.05
	}

	best := 1
	bestPerIter := 0.0
	iter := 0
	first := true
	for size := 1; size <= cores; size *= 2 {
		if iter+probe > n {
			break
		}
		t0 := c.CPU.CycleCount()
		k.RunChunk(c, size, iter, iter+probe)
		iter += probe
		perIter := float64(c.CPU.CycleCount()-t0) / float64(probe)
		if first || improves(perIter, bestPerIter, minGain) {
			best = size
			bestPerIter = perIter
			first = false
			continue
		}
		// Throughput stopped improving: stop climbing.
		break
	}

	trainCycles := c.CPU.CycleCount() - start
	if iter < n {
		k.RunChunk(c, best, iter, n)
	}
	return KernelResult{
		Kernel:      k.Name(),
		Decision:    Decision{Threads: best},
		TrainIters:  iter,
		TrainCycles: trainCycles,
		Cycles:      c.CPU.CycleCount() - start,
	}
}

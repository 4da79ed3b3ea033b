package core

import (
	"math"

	"fdt/internal/counters"
	"fdt/internal/thread"
)

// RefinedBAT implements the paper's future-work suggestion (Section
// 9): "Our model for bandwidth utilization assumes that bandwidth
// requirement increases linearly with the number of threads ... More
// comprehensive models that take these effects into account can be
// developed."
//
// Under queueing, per-thread demand grows slightly sub-linearly, so
// Equation 5's P_BW = 100/BU_1 lands a little below the real knee.
// RefinedBAT starts from BAT's single-threaded estimate and then
// confirms it: it executes a probe chunk at the predicted size,
// measures the achieved utilization, and — if the bus is not yet
// saturated — rescales the prediction by the measured shortfall
// (P' = P * target/BU(P)), up to refinedRounds times. Each probe does
// real work, so the confirmation costs iterations; experiments
// quantify the trade against plain BAT.
type RefinedBAT struct{}

const (
	// refinedRounds bounds the confirmation probes.
	refinedRounds = 2
	// refinedTargetUtil is the saturation threshold.
	refinedTargetUtil = 0.95
)

// Name identifies the policy in reports.
func (RefinedBAT) Name() string { return "BAT-refined" }

// runKernel trains single-threaded like BAT, confirms the prediction
// with probe chunks of max(1, iterations/100) iterations, then runs
// the rest at the confirmed size.
func (RefinedBAT) runKernel(c *thread.Ctx, k Kernel) KernelResult {
	m := c.Machine()
	cores := m.Contexts()
	n := k.Iterations()
	start := c.CPU.CycleCount()
	busCtr := m.Ctrs.Counter(counters.BusBusyCycles)

	probe := max(1, n/100)

	// Stage 1: BAT's own training — single-threaded, first iteration
	// is warmup (cf. Controller).
	measure := func(size, iters int, iter *int) float64 {
		t0 := c.CPU.CycleCount()
		b0 := busCtr.Sample()
		k.RunChunk(c, size, *iter, *iter+iters)
		*iter += iters
		dt := c.CPU.CycleCount() - t0
		if dt == 0 {
			return 0
		}
		u := float64(busCtr.DeltaSince(b0)) / float64(dt)
		if u > 1 {
			u = 1
		}
		return u
	}

	iter := 0
	if n >= 2 {
		measure(1, 1, &iter) // warmup
	}
	bu1 := 0.0
	if iter < n {
		bu1 = measure(1, min(probe, n-iter), &iter)
	}

	d := Decision{BusUtil1: bu1}
	if bu1 <= 0 || bu1*float64(cores) < 1 {
		d.Threads = cores
	} else {
		p := RoundBAT(SaturationThreads(bu1), cores)
		// Stage 2: confirmation probes. A probe must give every
		// thread several iterations, or the fork/join ramp drowns the
		// steady-state utilization and the correction overshoots.
		for round := 0; round < refinedRounds && p < cores; round++ {
			confIters := probe
			if minIters := 6 * p; confIters < minIters {
				confIters = minIters
			}
			if iter+confIters > n {
				break
			}
			u := measure(p, confIters, &iter)
			if u >= refinedTargetUtil || u <= 0 {
				break
			}
			next := int(math.Ceil(float64(p) * refinedTargetUtil / u))
			if next <= p {
				break
			}
			if next > cores {
				next = cores
			}
			p = next
		}
		d.PBW = p
		d.Threads = p
	}

	trainCycles := c.CPU.CycleCount() - start
	if iter < n {
		k.RunChunk(c, d.Threads, iter, n)
	}
	return KernelResult{
		Kernel:      k.Name(),
		Decision:    d,
		TrainIters:  iter,
		TrainCycles: trainCycles,
		Cycles:      c.CPU.CycleCount() - start,
	}
}

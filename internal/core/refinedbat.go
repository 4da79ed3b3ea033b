package core

import (
	"math"

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
	cores := c.Machine().Contexts()
	n := k.Iterations()
	start := c.CPU.CycleCount()
	probe := max(1, n/100)

	// Stage 1: BAT's own training — single-threaded, first iteration
	// is warmup (cf. Controller).
	iter := 0
	if n >= 2 {
		k.RunChunk(c, 1, 0, 1) // warmup
		iter = 1
	}
	bu1 := 0.0
	if iter < n {
		end := iter + min(probe, n-iter)
		bu1 = busUtil(timeChunk(c, k, 1, iter, end))
		iter = end
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
			u := busUtil(timeChunk(c, k, p, iter, iter+confIters))
			iter += confIters
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
	return finishKernel(c, k, d, iter, start)
}

// busUtil is a timed chunk's bus utilization, capped at 1 (0 for an
// empty chunk).
func busUtil(cycles, bus uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return min(float64(bus)/float64(cycles), 1)
}

package core

import (
	"fdt/internal/counters"
	"fdt/internal/thread"
)

// This file implements the Sample stage of the FDT pipeline (Fig 7's
// "training" box): peel iterations off the kernel's front, run them
// single-threaded with the counters instrumented, and stop as soon as
// every measurement the policy asked for is complete.

// IterSample is one peeled iteration's counter deltas: wall cycles,
// cycles inside critical sections, off-chip bus busy cycles, and
// memory-port stall cycles (the wall-anchored component the DVFS
// search must not scale).
type IterSample struct {
	Cycles   uint64
	CS       uint64
	BusBusy  uint64
	MemStall uint64
}

// SampleOutcome is what the Sample stage hands the Estimator: the raw
// aggregate over every peeled iteration (Train), the per-iteration
// series (Samples), and the first iteration left unexecuted (Next).
type SampleOutcome struct {
	Train   TrainResult
	Samples []IterSample
	Next    int
}

// Sampler runs peeled training iterations. It is a pure pipeline
// stage: all state lives in the outcome, so the controller can re-run
// it mid-kernel when the Monitor detects a phase change.
type Sampler struct {
	Params TrainingParams
}

// Sample peels training iterations from [lo, hi) for pol, at most the
// params' fraction of the span (but at least two when available: the
// first iteration runs against cold caches and serves as warmup).
// Training stops early once every measurement the policy wants is
// stable or excluded — SAT's stability window, BAT's early-out.
func (s Sampler) Sample(c *thread.Ctx, k Kernel, pol Model, lo, hi int) SampleOutcome {
	m := c.Machine()
	cores := c.TeamSize()
	span := hi - lo

	maxTrain := int(float64(span) * s.Params.MaxTrainFraction)
	if maxTrain < 2 {
		maxTrain = 2
	}
	if maxTrain > span {
		maxTrain = span
	}

	// CS cycles come from the team's private counter file — a real
	// runtime's lock instrumentation only sees its own program, and
	// training must not absorb a co-runner's synchronization. The bus
	// observable is deliberately the machine-global counter: a
	// socket-wide PMU counter (BUS_DRDY_CLOCKS) cannot filter by
	// requestor, so a co-runner's traffic raises observed utilization —
	// which is correct, because shared bandwidth IS scarcer (Eq. 5's
	// BU_1 should reflect the bus the kernel will actually run on).
	csCtr := c.TeamCounter(thread.CtrCSCycles)
	busCtr := m.Ctrs.Counter(counters.BusBusyCycles)
	// Memory-port stalls are machine-global like the bus counter
	// (stall PMU events are per-core but training runs one thread, so
	// a single-tenant run's deltas are its own; a co-runner's stalls
	// bleed in, which only matters to the DVFS compute/memory split).
	ldCtr := m.Ctrs.Counter(counters.LoadStallCycles)
	stCtr := m.Ctrs.Counter(counters.StoreStallCycles)

	var out SampleOutcome
	var ratios []float64
	satDone := !pol.WantsSAT()
	batDone := !pol.WantsBAT()

	iter := 0
	for iter < maxTrain && !(satDone && batDone) {
		t0 := c.CPU.CycleCount()
		cs0 := csCtr.Sample()
		b0 := busCtr.Sample()
		ld0 := ldCtr.Sample()
		st0 := stCtr.Sample()
		k.RunChunk(c, 1, lo+iter, lo+iter+1)
		iter++
		dt := c.CPU.CycleCount() - t0
		dcs := csCtr.DeltaSince(cs0)
		db := busCtr.DeltaSince(b0)
		dms := ldCtr.DeltaSince(ld0) + stCtr.DeltaSince(st0)
		out.Train.TotalCycles += dt
		out.Train.CSCycles += dcs
		out.Train.BusBusyCycles += db
		out.Train.MemStallCycles += dms
		out.Samples = append(out.Samples, IterSample{Cycles: dt, CS: dcs, BusBusy: db, MemStall: dms})

		if !satDone {
			ratios = append(ratios, csRatio(dt, dcs))
			if stableWindow(ratios, s.Params.StabilityWindow, s.Params.StabilityTol) {
				satDone = true
				out.Train.SATStable = true
			}
		}
		if !batDone && out.Train.TotalCycles >= s.Params.BATEarlyOutCycles && len(out.Samples) >= 2 {
			// Judge bandwidth on warm iterations only (drop the cold
			// first sample): a kernel whose steady state cannot
			// saturate the bus even with every core running will
			// never be bandwidth-limited, and training may stop.
			var wt, wb uint64
			for _, sm := range out.Samples[1:] {
				wt += sm.Cycles
				wb += sm.BusBusy
			}
			if wt > 0 && float64(wb)/float64(wt)*float64(cores) < 1 {
				batDone = true
				out.Train.BWExcluded = true
			}
		}
	}
	out.Train.Iters = iter
	out.Next = lo + iter
	return out
}

// csRatio computes one iteration's T_CS / T_NoCS.
func csRatio(total, cs uint64) float64 {
	if cs >= total {
		return 1
	}
	noCS := total - cs
	if noCS == 0 {
		return 0
	}
	return float64(cs) / float64(noCS)
}

// stableWindow reports whether the last w ratios agree within tol:
// the relative spread (max-min over mean) is at most tol. An all-zero
// window (no critical section observed) counts as stable.
func stableWindow(ratios []float64, w int, tol float64) bool {
	if w < 2 || len(ratios) < w {
		return false
	}
	win := ratios[len(ratios)-w:]
	lo, hi, sum := win[0], win[0], 0.0
	for _, r := range win {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
		sum += r
	}
	if hi == 0 {
		return true // no critical section anywhere in the window
	}
	mean := sum / float64(w)
	return (hi-lo)/mean <= tol
}

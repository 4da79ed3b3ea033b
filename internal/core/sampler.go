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

// Sample peels training iterations from [lo, hi) for pol, one at a
// time, until the stop rule (trainStop) says the series is complete.
func (s Sampler) Sample(c *thread.Ctx, k Kernel, pol Model, lo, hi int) SampleOutcome {
	m := c.Machine()
	cores := c.TeamSize()

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
	for {
		tr, stopped := s.Params.trainStop(pol, out.Samples, hi-lo, cores)
		if stopped {
			out.Train = tr
			break
		}
		t0 := c.CPU.CycleCount()
		cs0 := csCtr.Sample()
		b0 := busCtr.Sample()
		ld0 := ldCtr.Sample()
		st0 := stCtr.Sample()
		iter := lo + len(out.Samples)
		k.RunChunk(c, 1, iter, iter+1)
		out.Samples = append(out.Samples, IterSample{
			Cycles:   c.CPU.CycleCount() - t0,
			CS:       csCtr.DeltaSince(cs0),
			BusBusy:  busCtr.DeltaSince(b0),
			MemStall: ldCtr.DeltaSince(ld0) + stCtr.DeltaSince(st0),
		})
	}
	out.Next = lo + out.Train.Iters
	return out
}

// trainStop is the Sample stage's stop rule, a pure function of the
// peeled series so far: the live Sampler asks it after every
// iteration, and the run cache replays it over a sibling policy's
// recorded series. It scans the prefixes of samples in order and
// stops at the first one where every measurement pol wants is complete
// — SAT's T_CS/T_NoCS stability window, BAT's early-out — or where
// the prefix reaches the cap: the params' fraction of the span, but
// at least two iterations when available (the first runs against cold
// caches and serves as warmup). Both completions are sticky. At the
// stop it reports the prefix's raw aggregate (Iters, the summed
// counters and the two flags) and true; when no prefix of samples
// stops, it reports false.
func (p TrainingParams) trainStop(pol Model, samples []IterSample, span, cores int) (TrainResult, bool) {
	maxTrain := int(float64(span) * p.MaxTrainFraction)
	if maxTrain < 2 {
		maxTrain = 2
	}
	if maxTrain > span {
		maxTrain = span
	}
	var (
		tr      TrainResult
		ratios  []float64
		wt, wb  uint64 // warm (all but the first) cycles and bus-busy cycles
		satDone = !pol.WantsSAT()
		batDone = !pol.WantsBAT()
	)
	for i := 0; ; i++ {
		if i >= maxTrain || satDone && batDone {
			tr.Iters = i
			return tr, true
		}
		if i == len(samples) {
			return TrainResult{}, false
		}
		sm := samples[i]
		tr.TotalCycles += sm.Cycles
		tr.CSCycles += sm.CS
		tr.BusBusyCycles += sm.BusBusy
		tr.MemStallCycles += sm.MemStall
		if i > 0 {
			wt += sm.Cycles
			wb += sm.BusBusy
		}
		if !satDone {
			ratios = append(ratios, csRatio(sm.Cycles, sm.CS))
			if stableWindow(ratios, p.StabilityWindow, p.StabilityTol) {
				satDone = true
				tr.SATStable = true
			}
		}
		if !batDone && tr.TotalCycles >= p.BATEarlyOutCycles && i > 0 {
			// Judge bandwidth on warm iterations only (drop the cold
			// first sample): a kernel whose steady state cannot
			// saturate the bus even with every core running will
			// never be bandwidth-limited, and training may stop.
			if wt > 0 && float64(wb)/float64(wt)*float64(cores) < 1 {
				batDone = true
				tr.BWExcluded = true
			}
		}
	}
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

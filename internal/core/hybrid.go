package core

import (
	"fmt"

	"fdt/internal/thread"
)

// This file implements the hybrid model+measurement controller: the
// FDT pipeline's analytic Estimate stage (Eq. 3/5/7) seeds the
// decision, bounded hill-climb probes around that seed refine it with
// live measurement, and a residual tracker arbitrates between the two
// sources of truth. While the model's assumptions hold (stationary
// critical-section cost, linear bus scaling) the controller behaves
// like the adaptive FDT pipeline with a cheap local search bolted on;
// when observed counter deltas and probe outcomes diverge from the
// model's predictions beyond a threshold, it falls back to pure
// measured hill-climbing (Katarzyński & Cytowski's autotuning stance),
// and returns to model-driven control once the residual decays —
// with hysteresis between the two thresholds so the state machine
// cannot thrash.

// HybridParams tunes the hybrid controller's refinement probes and its
// model/measured fallback thresholds. The rest of its tuning is fixed:
// see hybridInterval, hybridMaxProbes and hybridRecheckIntervals.
type HybridParams struct {
	// ProbeIters is the per-candidate sample length, in iterations, of
	// each probe comparison. A comparison interleaves the two team
	// sizes across four half-chunks (A-B-A-B), so it consumes
	// 2 x ProbeIters iterations in total.
	ProbeIters int
	// MinGain is the fractional per-iteration speedup a probed
	// neighbor must deliver to displace the current choice (the same
	// meaning as HillClimb.MinGain).
	MinGain float64
	// ResidualHigh and ResidualLow are the hysteresis thresholds on
	// the residual EWMA: the controller falls back to measured mode at
	// or above High and returns to model mode at or below Low. High
	// must exceed Low strictly.
	ResidualHigh, ResidualLow float64
}

const (
	// hybridInterval is the hybrid's execution-interval cadence: three
	// quarters of the adaptive pipeline's, whose drift tolerances and
	// retrain cap it shares. A shorter interval gives the residual more
	// observations per phase to integrate and keeps the per-interval
	// fork-and-rewarm cost paid at every chunk boundary amortized.
	hybridInterval = 48
	// hybridMaxProbes bounds the probe comparisons one walk may
	// execute — the "bounded" in bounded hill-climb.
	hybridMaxProbes = 4
	// hybridRecheckIntervals is the measured state's recovery cadence:
	// every this many monitor intervals the controller re-evaluates
	// the residual (and the windowed throughput) at a safe decision
	// point.
	hybridRecheckIntervals = 4
)

// DefaultHybridParams returns the hybrid controller's tuning.
func DefaultHybridParams() HybridParams {
	return HybridParams{
		ProbeIters:   24,
		MinGain:      0.03,
		ResidualHigh: 0.30,
		ResidualLow:  0.10,
	}
}

// WithDefaults fills zero fields from DefaultHybridParams.
func (p HybridParams) WithDefaults() HybridParams {
	d := DefaultHybridParams()
	if p.ProbeIters == 0 {
		p.ProbeIters = d.ProbeIters
	}
	if p.MinGain == 0 {
		p.MinGain = d.MinGain
	}
	if p.ResidualHigh == 0 {
		p.ResidualHigh = d.ResidualHigh
	}
	if p.ResidualLow == 0 {
		p.ResidualLow = d.ResidualLow
	}
	return p
}

// Validate rejects nonsense tunings (after WithDefaults resolution).
func (p HybridParams) Validate() error {
	if p.ProbeIters < 1 {
		return fmt.Errorf("hybrid: ProbeIters %d, want >= 1", p.ProbeIters)
	}
	if p.MinGain < 0 || p.MinGain >= 1 {
		return fmt.Errorf("hybrid: MinGain %g, want in [0, 1)", p.MinGain)
	}
	if p.ResidualLow <= 0 || p.ResidualHigh <= p.ResidualLow {
		return fmt.Errorf("hybrid: residual thresholds high %g / low %g, want high > low > 0 (hysteresis)",
			p.ResidualHigh, p.ResidualLow)
	}
	return nil
}

// Hybrid is the model+measurement controller. Combined, the full Eq. 7
// FDT model, seeds each decision. Like HillClimb it is a measured
// policy — its probes time real chunks, so it always executes exactly.
type Hybrid struct {
	// HP tunes the probes and the fallback state machine; zero fields
	// mean DefaultHybridParams.
	HP HybridParams

	// FaultIllegalFallback forces a fallback at the first re-decision
	// point regardless of the residual — a deliberate controller bug
	// that must trip the ctl-hybrid-state invariant. Mutation tests
	// use it to prove the rule has teeth.
	FaultIllegalFallback bool
}

// Name identifies the controller in reports.
func (Hybrid) Name() string { return "hybrid" }

// runKernel drives one kernel through the hybrid state machine. Each
// phase starts at a safe decision point with the Sample stage (both
// states keep training: the model state needs its seed, the measured
// state needs fresh expectations to measure the residual against),
// chooses a team size — model seed plus bounded refinement probes, or
// a pure measured climb — and executes until the kernel ends or a
// drift/recheck returns control to the decision point, where the
// residual arbitrates state transitions.
func (h Hybrid) runKernel(c *thread.Ctx, k Kernel) KernelResult {
	m := c.Machine()
	cores := c.TeamSize()
	n := k.Iterations()
	start := c.CPU.CycleCount()
	ct := newCtlTrace(m)
	cc := newCtlCheck(m)

	var pol Combined
	// The hybrid leans on probes, not on estimate precision: the seed
	// only has to land near the optimum, because the bounded walk
	// corrects it against live measurement. Half the paper's training
	// budget buys back most of the sampling cost on kernels whose
	// training window is expensive (a serial, bandwidth-saturated
	// prefix trains at the worst possible per-iteration rate).
	params := DefaultTrainingParams()
	params.MaxTrainFraction /= 2
	hp := h.HP.WithDefaults()

	if n < params.MinIterations {
		d := Decision{Threads: pol.StaticThreads(cores)}
		ct.decision(k.Name(), start, d)
		Executor{}.Execute(c, k, d.Threads, 0, n)
		ct.span("execute", k.Name(), start, c.CPU.CycleCount(), uint64(d.Threads), 0, uint64(n))
		return KernelResult{Kernel: k.Name(), Decision: d, Cycles: c.CPU.CycleCount() - start}
	}

	sampler := Sampler{Params: params}
	estimator := Estimator{Params: params}
	res := &Residual{}
	kr := KernelResult{Kernel: k.Name()}
	measured := false
	// lastModel is the model's most recent decision — the reference the
	// measured state audits its climbs against. lastSS is the most
	// recent training steady state (measured phases do not retrain).
	lastModel := 0
	var lastSS SteadyState
	// driftStreak counts consecutive model-state phases ended by binary
	// drift. One drift is a phase boundary — the model deserves a
	// retrain; a streak with a high residual is a model that keeps
	// failing, and only that falls back.
	driftStreak := 0
	threads := 0
	iter := 0
	trigger := ""
	for iter < n {
		phaseStart := c.CPU.CycleCount()
		phaseIter := iter
		cc.atDecision(c, phaseStart)

		var d Decision
		probed, trainIters := 0, 0
		probeStart := phaseStart
		if !measured {
			out := sampler.Sample(c, k, pol, iter, n)
			var tr TrainResult
			d, tr = estimator.Estimate(pol, out, cores)
			lastSS = estimator.Steady(out)
			trainIters = out.Train.Iters
			ct.span("sample", k.Name(), phaseStart, c.CPU.CycleCount(), uint64(trainIters), uint64(iter), 0)
			ct.decision(k.Name(), c.CPU.CycleCount(), d)
			cc.decision(pol, tr, cores, d, c.CPU.CycleCount())
			iter = out.Next
			// When a retrain reproduces the previous seed, the previous
			// refinement already audited it: the walk resumes from its
			// conclusion instead of re-descending from the seed, so a
			// model that keeps repeating the same misprediction pays for
			// the full correction once, not once per retrain.
			wstart := d.Threads
			if d.Threads == lastModel && threads > 0 {
				wstart = threads
			}
			lastModel = d.Threads

			probeStart = c.CPU.CycleCount()
			threads, probed = h.refine(c, k, d, wstart, iter, n, cores, hp, res)
			d.Threads = threads
		} else {
			// Pure measured mode: no training loop, no model — climb
			// from scratch, then audit how far the model's last word
			// sits from what measurement chose (agreement is how the
			// model earns its trust back). The walk starts from the
			// current team size, with no floor: an optimum far from it
			// is reached by re-climbs, each re-centered on the previous
			// winner.
			if threads < 1 {
				threads = cores
			}
			threads, probed, _ = h.walk(c, k, threads, 1, iter, n, cores, hp)
			res.Observe(disagreement(lastModel, threads))
			d = Decision{Threads: threads}
		}
		ct.span("probe", k.Name(), probeStart, c.CPU.CycleCount(), uint64(threads), uint64(probed), 0)
		iter += probed
		trainCycles := c.CPU.CycleCount() - phaseStart

		var stop int
		var dr *Drift
		execStart := c.CPU.CycleCount()
		if kr.Retrains >= maxRetrains {
			Executor{}.Execute(c, k, threads, iter, n)
			stop = n
		} else if !measured {
			// The model state runs like the adaptive pipeline, plus the
			// monitor's residual fallback test.
			mo := NewMonitor(hybridInterval, lastSS)
			mo.Res, mo.resHigh = res, hp.ResidualHigh
			stop, dr = Executor{}.ExecuteMonitored(c, k, threads, iter, n, mo)
		} else {
			stop, dr = h.executeMeasured(c, k, threads, iter, n, hp, lastSS, res)
		}
		ct.span("execute", k.Name(), execStart, c.CPU.CycleCount(), uint64(threads), uint64(iter), uint64(stop))
		if dr != nil {
			ct.retrain(c.CPU.CycleCount(), dr)
		}

		mode := "model"
		if measured {
			mode = "measured"
		}
		kr.TrainIters += trainIters + probed
		kr.TrainCycles += trainCycles
		kr.Phases = append(kr.Phases, PhaseDecision{
			StartIter:   phaseIter,
			Decision:    d,
			TrainIters:  trainIters + probed,
			TrainCycles: trainCycles,
			Cycles:      c.CPU.CycleCount() - phaseStart,
			Trigger:     trigger,
			Mode:        mode,
		})
		iter = stop
		if dr == nil {
			break
		}
		// Settle before re-deciding: the event that tripped the drift is
		// often a short transient (a burst onset drifts the bus signal
		// the moment it starts), and retraining on top of it poisons the
		// sample and every probe after it. One interval at the incumbent
		// size debounces the edge; a real phase change is still there
		// when the interval ends, one interval later.
		if settle := hybridInterval; n-iter >= settle+params.MinIterations {
			cycles, _ := timeChunk(c, k, threads, iter, iter+settle)
			kr.Phases[len(kr.Phases)-1].Cycles += cycles
			iter += settle
		}
		if n-iter < params.MinIterations {
			// Tail too short to re-decide on: finish with the current
			// decision and account it to the last phase.
			tailStart := c.CPU.CycleCount()
			Executor{}.Execute(c, k, threads, iter, n)
			kr.Phases[len(kr.Phases)-1].Cycles += c.CPU.CycleCount() - tailStart
			iter = n
			break
		}

		// State transitions happen here — at a decision point, with the
		// residual's verdict in hand. A model phase falls back when the
		// residual path asked for it outright ("fallback"), or when a
		// binary drift extends a streak while the residual sits high.
		now := c.CPU.CycleCount()
		switch {
		case !measured && (dr.Signal == "fallback" ||
			(res.Value() >= hp.ResidualHigh && driftStreak >= 1) ||
			h.FaultIllegalFallback):
			cc.hybridState(c, "model", "measured", res.Value(), hp, now)
			measured = true
			kr.Fallbacks++
			trigger = "fallback"
			driftStreak = 0
		case measured && dr.Signal == "recover":
			cc.hybridState(c, "measured", "model", res.Value(), hp, now)
			measured = false
			kr.Recoveries++
			trigger = "recover"
			driftStreak = 0
		default:
			trigger = dr.Signal
			if !measured {
				driftStreak++
			}
		}
		kr.Retrains++
	}
	kr.Decision = kr.Phases[0].Decision
	kr.Cycles = c.CPU.CycleCount() - start
	return kr
}

// walk is the bounded search behind both states — refinement of the
// model's seed, and the measured state's climb from the current size: a
// bounded hill walk over team sizes, starting from start, where every
// comparison is an interleaved A-B-A-B design — four half-chunks of
// ProbeIters/2 iterations, alternating between the incumbent and the
// candidate, each size scored on its two samples' average. The design
// balances two pressures that pull the chunk length in opposite
// directions. Chunks must be long enough to amortize the fixed cost of
// each probe (a fresh fork plus cold caches), which at short chunks
// swamps the per-iteration signal and systematically penalizes larger
// teams. And the two candidates' samples must interleave finely enough
// that a kernel whose behaviour varies across the probed stretch — a
// sub-phase flip, a burst edge — contributes the same mixture to both
// sides: each size's two samples sit two half-chunks apart, so
// periodic composition and linear drift cancel to first order instead
// of deciding the comparison by alignment luck.
//
// The walk halves first — every way the model's assumptions break
// (contention blow-up, thread-scaled critical sections, convoying)
// pushes the true optimum below the seed — then doubles if the start
// survived. Unit-neighbor polishing runs only when a geometric step
// moved: the geometric rungs land at most a factor of two from the
// optimum but never between rungs (halving from 21 visits 10, 5, 2 —
// never 4), so a moved walk must check its neighborhood, while a start
// that survived both 2x tests keeps its ±1 neighborhood on the
// starting authority — polishing a flat landscape buys nothing and
// costs two comparisons. hybridMaxProbes counts comparisons; each consumes
// 2 x ProbeIters iterations. Returns the chosen size, the iterations
// consumed, and the compounded per-iteration speedup over the start.
// minSize bounds the halving phase from below: the model can prove a
// floor (a bandwidth-binding decision means fewer threads cannot
// saturate the bus), and probing below it buys an expensive
// confirmation of something already measured. Pass 1 for no floor.
func (h Hybrid) walk(c *thread.Ctx, k Kernel, start, minSize, lo, hi, cores int, hp HybridParams) (best, used int, gain float64) {
	half := hp.ProbeIters / 2
	if half < 1 {
		half = 1
	}
	budget := hybridMaxProbes
	compare := func(a, b int) (perA, perB float64, ok bool) {
		at := lo + used
		if budget < 1 || at+4*half > hi {
			return 0, 0, false
		}
		budget--
		used += 4 * half
		a1, _ := timeChunk(c, k, a, at, at+half)
		b1, _ := timeChunk(c, k, b, at+half, at+2*half)
		a2, _ := timeChunk(c, k, a, at+2*half, at+3*half)
		b2, _ := timeChunk(c, k, b, at+3*half, at+4*half)
		return float64(a1+a2) / float64(2*half), float64(b1+b2) / float64(2*half), true
	}
	if minSize < 1 {
		minSize = 1
	}
	best = start
	gain = 1.0
	for best > 1 {
		next := best / 2
		if next < minSize {
			break
		}
		pa, pb, ok := compare(best, next)
		if !ok || !improves(pb, pa, hp.MinGain) {
			break
		}
		gain *= pa / pb
		best = next
	}
	if best == start {
		for best < cores {
			next := best * 2
			if next > cores {
				next = cores
			}
			pa, pb, ok := compare(best, next)
			if !ok || !improves(pb, pa, hp.MinGain) {
				break
			}
			gain *= pa / pb
			best = next
		}
	}
	if best == start {
		return best, used, gain
	}
	for _, dir := range []int{-1, 1} {
		moved := false
		for best+dir >= 1 && best+dir <= cores {
			pa, pb, ok := compare(best, best+dir)
			if !ok || !improves(pb, pa, hp.MinGain) {
				break
			}
			gain *= pa / pb
			best += dir
			moved = true
		}
		if moved {
			break
		}
	}
	return best, used, gain
}

// refine is the model state's bounded local search around the
// analytic seed. The walk starts from wstart — the seed itself, or the
// previous refinement's conclusion when the model repeated itself. The
// model's misprediction feeds the residual: the compounded
// per-iteration gain the walk found, or the normalized distance
// between the seed and the walk's conclusion when the walk started
// elsewhere (a repeated seed the probes again refuse to return to is
// a repeated misprediction, even though the re-walk itself found no
// new gain). A seed that survives its probes feeds zero and decays
// the residual. Returns the chosen team size and the iterations the
// probes consumed.
func (h Hybrid) refine(c *thread.Ctx, k Kernel, d Decision, wstart, lo, hi, cores int, hp HybridParams, res *Residual) (int, int) {
	seed := d.Threads
	// When the decision is bandwidth-binding (Eq. 5 chose it), the bus
	// measurement already proves smaller teams cannot saturate the bus:
	// halving below the seed would spend probes in the most expensive
	// place a bandwidth-limited kernel has (starved of its bandwidth),
	// to confirm the one part of the model grounded in a direct
	// measurement.
	minSize := 1
	if d.PBW > 0 && seed == d.PBW {
		minSize = d.PBW
	}
	best, used, gain := h.walk(c, k, wstart, minSize, lo, hi, cores, hp)
	if best != seed {
		// Misprediction evidence, capped and halved — the probes
		// already corrected this mistake, so it counts as attenuated
		// evidence against the model, not a full-strength deviation.
		// Only repeated misprediction accumulates to the threshold.
		miss := gain - 1
		if d := disagreement(seed, best); d > miss {
			miss = d
		}
		if miss > 1 {
			miss = 1
		}
		res.Observe(miss / 2)
	} else if used > 0 {
		res.Observe(0)
	}
	return best, used
}

// executeMeasured runs [lo, hi) at the climbed team size in
// monitor-interval chunks. Binary drift is deliberately ignored — the
// measured state exists because the model's expectations proved
// untrustworthy, and reacting to every drifting interval is exactly
// the thrash the fallback escapes — but the residual keeps integrating
// observed-vs-expected deviations against the freshest training, and
// every hybridRecheckIntervals intervals the state machine gets a
// chance to act at a safe point: a residual back at or under
// ResidualLow returns control to the model ("recover"), while a shift
// in the windowed mean throughput beyond the drift tolerance triggers
// a re-climb ("measure"). Oscillation faster than the window averages
// out of both triggers instead of thrashing them. The monitor is
// rebuilt at every recheck so each window's deviations measure local
// stationarity, not distance from a stale snapshot.
func (h Hybrid) executeMeasured(c *thread.Ctx, k Kernel, threads, lo, hi int, hp HybridParams, ss SteadyState, res *Residual) (int, *Drift) {
	if !c.AtDecisionPoint() {
		panic("core: executeMeasured outside a decision point")
	}
	var mo *Monitor
	basePer := 0.0
	winIters, intervals := 0, 0
	var winCycles uint64
	for lo < hi {
		if mo == nil {
			mo = NewMonitor(hybridInterval, ss)
			mo.Res = res
			mo.Arm(c)
		}
		end := min(lo+hybridInterval, hi)
		cycles, _ := timeChunk(c, k, threads, lo, end)
		iters := end - lo
		lo = end
		mo.Observe(c, iters, lo)
		winIters += iters
		winCycles += cycles
		intervals++
		if intervals%hybridRecheckIntervals != 0 || lo >= hi {
			continue
		}
		if res.Value() <= hp.ResidualLow {
			return lo, &Drift{Iter: lo, Signal: "recover", Observed: res.Value(), Expected: hp.ResidualLow}
		}
		per := float64(winCycles) / float64(winIters)
		if basePer > 0 && drifted(per, basePer, 0) {
			return lo, &Drift{Iter: lo, Signal: "measure", Observed: per, Expected: basePer}
		}
		basePer = per
		winIters, winCycles, mo = 0, 0, nil
	}
	return hi, nil
}

// improves reports whether a probed per-iteration time beats the best
// one by at least the minimum gain. The comparison is strict, so a
// probe landing exactly on the boundary does not displace the
// incumbent.
func improves(perIter, bestPerIter, minGain float64) bool {
	return perIter < bestPerIter*(1-minGain)
}

// disagreement scores how far the model's decision sits from the
// measured one: 0 when they agree, approaching 1 as they diverge.
func disagreement(model, meas int) float64 {
	if model == meas {
		return 0
	}
	hi, lo := model, meas
	if lo > hi {
		hi, lo = lo, hi
	}
	if hi <= 0 {
		return 0
	}
	return float64(hi-lo) / float64(hi)
}

package core

import (
	"fdt/internal/sampled"
	"fdt/internal/thread"
)

// This file implements the Execute stage of the FDT pipeline: run the
// kernel's remaining iterations on the decided team. The train-once
// path executes the whole remainder as one chunk — exactly the seed
// controller's behaviour. The monitored path executes interval-sized
// chunks so the Monitor can read counter deltas (and the controller
// can change the team) at the chunk boundaries, where every worker
// has joined and the master is at a safe re-decision point.

// The sampled executor's fixed tuning. sampled.Params.Key prints these
// values into run keys; changing one must change the key.
const (
	// skipStartWindows is the first fast-forward length, in windows.
	// Each later skip quadruples up to skipMaxWindows; a window that
	// falls out of steady state resets the length. The short first skip
	// is the counterweight to the detector's single confirming window:
	// an engagement on flukish agreement is re-verified four windows
	// later, before the ramp reaches consequential skip lengths.
	skipStartWindows = 4
	// skipMaxWindows caps the geometric skip growth.
	skipMaxWindows = 512
	// minWindowCycles is the smallest useful detailed-window cost.
	// Every detailed window pays a fixed chunk-boundary overhead
	// (fork/join of the team) the single-chunk exact run does not;
	// windows are grown until they cost at least this many cycles so
	// that overhead stays a sub-percent fraction of the profile being
	// extrapolated.
	minWindowCycles = 40_000
	// bailCycles is the remaining-work floor below which sampling stops
	// paying: once a kernel's projected remainder (remaining iterations
	// at the measured cycles/iteration) falls under it, the executor
	// runs the remainder as one exact chunk. Short, cheap kernels gain
	// nothing from extrapolation but would still pay the per-window
	// fork/join overhead as modeling error.
	bailCycles = 250_000
)

// Executor runs execution chunks on behalf of the controller.
type Executor struct{}

// Execute runs iterations [lo, hi) at the decided team size in a
// single chunk.
func (Executor) Execute(c *thread.Ctx, k Kernel, threads, lo, hi int) {
	if !c.AtDecisionPoint() {
		panic("core: Execute outside a decision point")
	}
	if lo < hi {
		k.RunChunk(c, threads, lo, hi)
	}
}

// ExecuteMonitored runs iterations [lo, hi) at the decided team size
// in chunks of the monitor's interval, consulting the monitor after each:
// its binary drift test, then, when a residual is attached, its
// fallback test. It returns the first iteration not executed and the
// drift that stopped it — (hi, nil) when the kernel's remainder
// completed without a phase change.
func (ex Executor) ExecuteMonitored(c *thread.Ctx, k Kernel, threads, lo, hi int, mo *Monitor) (int, *Drift) {
	if !c.AtDecisionPoint() {
		panic("core: ExecuteMonitored outside a decision point")
	}
	step := mo.interval
	mo.Arm(c)
	for lo < hi {
		end := lo + step
		if end > hi {
			end = hi
		}
		k.RunChunk(c, threads, lo, end)
		iters := end - lo
		lo = end
		if dr := mo.Observe(c, iters, lo); dr != nil {
			return lo, dr
		}
		if dr := mo.fallback(lo, hi); dr != nil {
			return lo, dr
		}
	}
	return hi, nil
}

// ExecuteSampled runs iterations [lo, hi) at the decided team size in
// sampled mode: detailed windows cycle-simulate normally while a
// steady-state detector watches their counter profiles; once K
// consecutive windows agree, the executor extrapolates the last
// window's profile across a growing number of skipped iterations
// (counters, power and clock advance analytically via
// thread.Ctx.FastForward) and returns to detailed mode for the next
// window. A window that falls out of steady state resets the skip
// length, so phase boundaries are always observed in detail.
//
// With a non-nil monitor the executor also drives the adaptive
// pipeline's drift detection: windows widen to the monitor interval
// (preserving the exact-mode observation cadence on detailed
// regions), the monitor observes every detailed window, and it is
// re-armed after each fast-forward so extrapolated counter deltas are
// never misread as drift. Returns like ExecuteMonitored: the first
// iteration not executed and the drift that stopped it, or (hi, nil).
func (ex Executor) ExecuteSampled(c *thread.Ctx, k Kernel, threads, lo, hi int, p sampled.Params, st *sampled.Stats, mo *Monitor) (int, *Drift) {
	if !c.AtDecisionPoint() {
		panic("core: ExecuteSampled outside a decision point")
	}
	if eo, ok := k.(ExactOnlyKernel); ok && eo.SampleExactOnly() {
		// The kernel's stores warm a later kernel's working set;
		// fast-forwarding it would poison every downstream measurement
		// (see ExactOnlyKernel). Fall back to exact execution.
		if mo != nil {
			end, dr := ex.ExecuteMonitored(c, k, threads, lo, hi, mo)
			st.DetailedIters += end - lo
			return end, dr
		}
		ex.Execute(c, k, threads, lo, hi)
		st.DetailedIters += hi - lo
		return hi, nil
	}
	p = p.WithDefaults()
	m := c.Machine()
	det := sampled.NewDetector(p)
	w := p.WindowIters
	if mo != nil && mo.interval > w {
		w = mo.interval
	}
	// Periodic kernels (SampleUnitKernel) sample whole periods;
	// otherwise, iteration-parallel kernels split [lo, hi) across the
	// team (thread.Ctx.Range), so a window shorter than the team leaves
	// threads idle and the measured profile models a smaller machine.
	// Round the window up to a period or team multiple so every
	// detailed window measures the behaviour it extrapolates.
	unit := 1
	if su, ok := k.(SampleUnitKernel); ok && su.SampleUnit() > 1 {
		unit = su.SampleUnit()
	} else if threads > 1 {
		unit = threads
	}
	w = (w + unit - 1) / unit * unit
	// Measure the fixed fork/join cost of one chunk with an empty
	// RunChunk (the team forks and joins without doing work). The
	// detector subtracts it from every window's per-iteration model and
	// compensates each fast-forward for the extra chunk boundary, so
	// detailed windows can stay small without their boundary overhead
	// being extrapolated as bias.
	t0 := m.Eng.Now()
	k.RunChunk(c, threads, lo, lo)
	oh := m.Eng.Now() - t0
	det.SetOverhead(oh)
	minWindow := uint64(minWindowCycles)
	if 8*oh > minWindow {
		minWindow = 8 * oh
	}
	skip := skipStartWindows
	unsteady := 0
	dropWin := false
	wins := 0
	start := lo
	if mo != nil {
		mo.Arm(c)
	}
	for lo < hi {
		// Fast-forward through the steady region. Monitored runs always
		// leave at least one final detailed window so the region's tail
		// — and the next decision point — reads real counters;
		// unmonitored runs may extrapolate through the tail entirely,
		// since nothing reads the boundary state before the next
		// kernel's (always detailed) training.
		room := hi - lo - w
		if mo == nil {
			room = hi - lo
		}
		if det.Steady() && room > unit {
			n := skip * w
			capped := false
			if ms := det.MaxSkipIters(); ms > 0 && n > ms {
				// The region is drifting: bound each skip to where the
				// linear model stays trustworthy, and hold the skip
				// length down so every projection gets re-verified.
				n = ms / unit * unit
				if n < unit {
					n = unit
				}
				capped = true
				skip = skipStartWindows
			}
			if n > room {
				// Keep the tail skip period-aligned so any remaining
				// detailed windows measure whole periods.
				n = room / unit * unit
			}
			ff := det.Extrapolate(m, n)
			c.FastForward(ff)
			lo += n
			st.SkippedIters += n
			st.SkippedCycles += ff
			st.FastForwards++
			if mo != nil {
				mo.Arm(c)
			}
			if !capped && skip < skipMaxWindows {
				skip = min(4*skip, skipMaxWindows)
			}
		}
		end := lo + w
		if end > hi {
			end = hi
		}
		pr := sampled.Begin(m)
		k.RunChunk(c, threads, lo, end)
		iters := end - lo
		win := pr.End(m, iters)
		win.Start = lo
		lo = end
		st.DetailedIters += iters
		wins++
		resized := false
		if dropWin {
			// The first window after a resize measures the geometry
			// transition (the team re-tiles its data); it is neither a
			// fair baseline nor comparable to what follows, so it is
			// simulated but not fed to the detector.
			dropWin = false
		} else {
			wasSteady := det.Steady()
			det.Observe(win)
			if wasSteady && !det.Steady() {
				st.Reentries++
				skip = skipStartWindows
			}
			// Persistent comparison failures mean the window is too
			// short for the kernel's noise floor: double it so
			// per-window variation averages down, instead of simulating
			// everything in detail. A window that merely hasn't
			// finished building its stable run does not count, and the
			// threshold sits above the trend fit's evidence floor so a
			// noisy-but-linear region gets its fit-steady chance before
			// the resize wipes the history.
			if det.Steady() || det.StableRun() > 0 {
				unsteady = 0
			} else if unsteady++; unsteady >= 6 && mo == nil {
				unsteady = 0
				w = (2*w + unit - 1) / unit * unit
				resized = true
			}
		}
		// Grow windows that are too cheap: overhead subtraction handles
		// the first-order chunk-boundary bias, but a window within a
		// small multiple of the fork/join cost measures mostly noise.
		// Monitored runs never resize: the Monitor's drift expectations
		// were trained at the interval cadence, and a window of a
		// different length amortizes its fork/join overhead differently
		// — the monitor would read the geometry change as counter drift
		// and retrain on it. Exact monitored execution always observes
		// interval-sized chunks; sampled execution must preserve that
		// cadence on its detailed windows.
		if mo == nil && iters == w && win.Cycles > 0 && win.Cycles < minWindow {
			f := int((minWindow + win.Cycles - 1) / win.Cycles)
			if f > 8 {
				f = 8
			}
			w = (w*f + unit - 1) / unit * unit
			resized = true
		}
		// Chunk geometry is part of what a window measures: the team
		// splits each chunk by ranges, so windows of different lengths
		// map iterations to threads (and data to caches) differently,
		// and their profiles are not comparable. A resize restarts
		// detection so the trend model only ever fits like-sized
		// windows — mixing sizes poisons the slope and can hold the
		// detector off for the rest of the region.
		if resized {
			det.Reset()
			dropWin = true
		}
		if mo != nil {
			if dr := mo.Observe(c, iters, lo); dr != nil {
				return lo, dr
			}
		}
		// Bail out of sampling when it isn't going to pay: either the
		// projected remainder is too cheap to be worth modeling (the
		// fork/join overhead of further windows would rival the
		// extrapolation itself), or half the region has run in detail
		// without the detector ever declaring steady state — a region
		// that noisy gains nothing from more windows, while every extra
		// chunk boundary perturbs the simulated state. The remainder
		// runs as one exact chunk. Only regions that never engaged
		// bail; once a skip has happened, extrapolation is strictly
		// cheaper than running the tail. Monitored runs keep their
		// interval cadence either way — the Monitor needs its
		// per-interval deltas.
		// The half-region give-up waits out the trend fit's evidence
		// floor: a wide-windowed kernel (unit = team at n=32) crosses
		// half its region in four windows, and bailing there would deny
		// noisy-but-linear regions the fit that lets them engage at all.
		if mo == nil && st.FastForwards == 0 && !det.Steady() && det.StableRun() == 0 && lo < hi && win.Iters > 0 {
			cpi := win.Cycles / uint64(win.Iters)
			if uint64(hi-lo)*cpi < bailCycles || (wins > 4 && 2*(lo-start) >= hi-start) {
				k.RunChunk(c, threads, lo, hi)
				st.DetailedIters += hi - lo
				return hi, nil
			}
		}
	}
	return hi, nil
}

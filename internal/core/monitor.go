package core

import (
	"fdt/internal/counters"
	"fdt/internal/thread"
	"fdt/internal/trace"
)

// This file implements the Monitor stage of the FDT pipeline — the
// deviation from the paper's train-once design (Section 9 flags the
// locked decision as fragile for kernels whose behaviour shifts
// mid-execution). During chunked execution the monitor keeps reading
// per-interval counter deltas and compares the kernel's observed
// per-iteration critical-section time and bus occupancy against the
// trained steady-state estimate; when either drifts beyond tolerance,
// the kernel has changed phase and the controller re-enters the
// Sample stage at the current iteration.

// The Monitor's tuning is fixed: re-check every adaptiveInterval
// iterations (hybridInterval under the hybrid controller), tolerate
// 100% relative drift (single-threaded training underestimates
// contended critical-section cost, so execution-mode readings sit above
// the trained estimate even within one phase), floors at a few tens of
// cycles per iteration, and at most maxRetrains re-trainings per
// kernel. monitorKey prints these values into run keys as the
// parameter struct that once carried them rendered, so persisted runs
// keep their addresses; changing a value must change the key.
const (
	// adaptiveInterval is the adaptive controller's execution chunk
	// length in iterations; the monitor reads counter deltas at every
	// chunk boundary (the only safe re-decision points — between
	// chunks the team has joined).
	adaptiveInterval = 64
	// driftTol is the relative tolerance on the per-iteration signals:
	// an interval drifts when |observed - expected| exceeds
	// driftTol x min(observed, expected) and the absolute floor. The
	// min makes the test symmetric for onsets (expected ~0) and
	// drop-offs (observed ~0), both of which mark phase boundaries.
	driftTol = 1.0
	// csFloorCycles / busFloorCycles are absolute per-iteration floors
	// (in cycles) below which a difference is measurement noise, not a
	// phase change.
	csFloorCycles  = 16
	busFloorCycles = 24
	// maxRetrains caps re-trainings per kernel; past it the remainder
	// executes unmonitored with the last decision, bounding training
	// overhead on pathologically unstable kernels.
	maxRetrains = 8

	monitorKey = "monitor/{Interval:64 DriftTol:1 CSFloorCycles:16 BusFloorCycles:24 MaxRetrains:8}"
)

// Drift describes one detected phase change.
type Drift struct {
	// Iter is the first iteration not yet executed when the drift was
	// detected — where re-training starts.
	Iter int
	// Signal names the drifted quantity: "cs" (per-iteration critical-
	// section cycles) or "bus" (per-iteration bus busy cycles).
	Signal string
	// Observed and Expected are the per-iteration cycle values that
	// tripped the tolerance.
	Observed, Expected float64
}

// SteadyState is the per-iteration steady-state view of a training
// run — the reference the monitor measures execution intervals
// against.
type SteadyState struct {
	// Iters is the number of steady (post-warmup, in-window) samples.
	Iters int
	// CyclesPerIter, CSPerIter and BusPerIter are per-iteration
	// steady-state averages.
	CyclesPerIter, CSPerIter, BusPerIter float64
}

// Residual integrates the evidence stream behind the hybrid
// controller's fallback decision: an exponentially weighted moving
// average of relative deviations between observed per-interval signals
// and the model's (calibrated) expectations, plus the misprediction
// penalties the refinement probes feed it. Deviations are clamped at
// residualDevCap so one pathological interval cannot pin the average
// beyond recovery.
type Residual struct {
	v float64
}

const (
	// residualDevCap bounds a single deviation observation.
	residualDevCap = 2.0
	// residualDecay is each new observation's EWMA weight.
	residualDecay = 0.25
)

// Observe folds one (non-negative) deviation into the average.
func (r *Residual) Observe(dev float64) {
	if dev < 0 {
		dev = -dev
	}
	if dev > residualDevCap {
		dev = residualDevCap
	}
	r.v = (1-residualDecay)*r.v + residualDecay*dev
}

// Value reports the current EWMA.
func (r *Residual) Value() float64 { return r.v }

// relDev is the continuous form of the drift test: the absolute
// difference over the smaller signal. Differences under the noise
// floor contribute zero, and the denominator is floored so a
// near-zero expectation cannot blow the ratio up.
func relDev(obs, exp, floor float64) float64 {
	diff := obs - exp
	if diff < 0 {
		diff = -diff
	}
	if diff <= floor {
		return 0
	}
	lo := obs
	if exp < obs {
		lo = exp
	}
	if lo < floor {
		lo = floor
	}
	return diff / lo
}

// Monitor watches one kernel's execution against its trained
// estimate. Arm it after estimation, then Observe after every chunk.
type Monitor struct {
	// interval is the execution chunk length in iterations.
	interval int

	// Res, when non-nil, receives the continuous deviation of every
	// post-calibration interval (one observation per interval: the
	// worse of the CS and bus signals) — the hybrid controller's
	// residual plumbing. The binary drift verdict is unaffected.
	Res *Residual
	// resHigh is the residual's fallback threshold (see fallback), and
	// resArm its value when the monitor was armed.
	resHigh, resArm float64

	expCS, expBus float64
	calibrated    bool

	// csCtr is the team's private critical-section counter; busCtr the
	// machine-global bus counter (same scoping rationale as the
	// Sampler: locks are program-private, the bus PMU counter is
	// socket-wide — which is exactly how the monitor sees a co-runner's
	// onset as "bus" drift).
	csCtr, busCtr   *counters.Counter
	csSnap, busSnap counters.Sample

	// tr/track emit one "monitor" instant per interval reading —
	// the audit trail behind every retrain (and every non-retrain).
	tr    *trace.Tracer
	track trace.TrackID
}

// NewMonitor builds a monitor that observes every interval iterations
// and expects the trained steady state.
func NewMonitor(interval int, ref SteadyState) *Monitor {
	return &Monitor{interval: interval, expCS: ref.CSPerIter, expBus: ref.BusPerIter}
}

// Arm snapshots the counters at the start of monitored execution.
func (mo *Monitor) Arm(c *thread.Ctx) {
	mo.csCtr = c.TeamCounter(thread.CtrCSCycles)
	mo.busCtr = c.Machine().Ctrs.Counter(counters.BusBusyCycles)
	mo.csSnap = mo.csCtr.Sample()
	mo.busSnap = mo.busCtr.Sample()
	if mo.Res != nil {
		mo.resArm = mo.Res.Value()
	}
	if t := c.Machine().Trace; t.Wants(trace.CatCtl) {
		mo.tr = t
		mo.track = t.Track(trace.ControllerTrack)
	}
}

// Observe reads the counter deltas for the interval that just
// executed (iters iterations, ending just before iteration nextIter),
// re-arms for the next interval, and reports a Drift if the observed
// per-iteration bus or critical-section cycles left the tolerance
// band around the expectation.
//
// The first interval after each (re)training is a calibration
// interval: it rebases the trained expectations to team-execution
// values and never reports drift. Training runs single-threaded, so
// its per-iteration readings are systematically skewed against
// execution mode — kernels that merge per thread per iteration
// multiply their critical-section cycles by the team size (Eq 1's
// model), and contended critical sections pay lock-line ping-pong the
// training run never sees. Calibrating on the first executed interval
// makes every subsequent comparison like-for-like while the trained
// estimate remains the basis of the thread-count decision itself.
func (mo *Monitor) Observe(c *thread.Ctx, iters, nextIter int) *Drift {
	if iters <= 0 {
		return nil
	}
	dcs := mo.csCtr.DeltaSince(mo.csSnap)
	dbus := mo.busCtr.DeltaSince(mo.busSnap)
	mo.csSnap = mo.csCtr.Sample()
	mo.busSnap = mo.busCtr.Sample()
	obsCS := float64(dcs) / float64(iters)
	obsBus := float64(dbus) / float64(iters)

	if mo.tr != nil {
		mo.tr.Emit(trace.CatCtl, trace.Event{
			Cycle: c.CPU.CycleCount(), Track: mo.track, Kind: trace.Instant, Name: "monitor",
			A0: uint64(obsCS + 0.5), A1: uint64(obsBus + 0.5), A2: uint64(nextIter),
		})
	}

	if !mo.calibrated {
		mo.expCS, mo.expBus = obsCS, obsBus
		mo.calibrated = true
		return nil
	}
	if mo.Res != nil {
		// One observation per interval: the worse of the two signals.
		// Folding both would dilute a drifting signal with the quiet
		// one's zeros.
		dev := relDev(obsCS, mo.expCS, csFloorCycles)
		if b := relDev(obsBus, mo.expBus, busFloorCycles); b > dev {
			dev = b
		}
		mo.Res.Observe(dev)
	}
	// Bus first: a phase that both saturates the bus and synchronizes
	// more is bandwidth-limited first (Section 6.3's interaction).
	if drifted(obsBus, mo.expBus, busFloorCycles) {
		return &Drift{Iter: nextIter, Signal: "bus", Observed: obsBus, Expected: mo.expBus}
	}
	if drifted(obsCS, mo.expCS, csFloorCycles) {
		return &Drift{Iter: nextIter, Signal: "cs", Observed: obsCS, Expected: mo.expCS}
	}
	return nil
}

// fallback is the residual's in-phase test, run after each interval's
// Observe: it reports a "fallback" drift once the residual reaches
// resHigh while iterations [lo, hi) remain. A kernel can violate the
// model persistently but smoothly (oscillation inside the drift
// tolerance band, say), so an execution whose every interval deviates
// moderately never trips the binary test and would keep the model in
// charge forever. The residual must also have risen since Arm: one
// that starts above the threshold and only decays is a stale spike
// from the previous phase's boundary interval, and falling back on it
// would abandon a retrained model that is predicting well. Without a
// residual attached it reports nothing.
func (mo *Monitor) fallback(lo, hi int) *Drift {
	if mo.Res == nil || lo >= hi {
		return nil
	}
	if v := mo.Res.Value(); v >= mo.resHigh && v > mo.resArm {
		return &Drift{Iter: lo, Signal: "fallback", Observed: v, Expected: mo.resHigh}
	}
	return nil
}

// drifted applies the tolerance test: the absolute difference must
// exceed both the noise floor and driftTol times the smaller of the
// two values (symmetric for onsets and drop-offs).
func drifted(obs, exp, floor float64) bool {
	diff := obs - exp
	if diff < 0 {
		diff = -diff
	}
	if diff <= floor {
		return false
	}
	lo := obs
	if exp < obs {
		lo = exp
	}
	return diff > driftTol*lo
}

// Package sampled implements steady-state sampled simulation in the
// style of Pac-Sim (arXiv:2310.17089): cycle-simulate a warmup plus
// detailed windows of each kernel region, detect steady state from
// per-window counter deltas (cycles per iteration, critical-section
// fraction, bus utilization, DRAM row-hit rate stable within a
// tolerance for K consecutive windows), then analytically extrapolate
// cycles, power and counters across the homogeneous iterations in
// between. Exact simulation remains the oracle: sampling is an opt-in
// execution mode, and any run that needs cycle-exact state (invariant
// checking, golden traces) uses exact mode.
//
// The package knows nothing about policies or kernels; it provides
// the measurement (Probe/Window), decision (Detector) and
// fast-forward arithmetic (Detector.Extrapolate) that the FDT
// controller's sampled executor composes.
package sampled

import (
	"fmt"
	"math"

	"fdt/internal/counters"
	"fdt/internal/machine"
)

// csCyclesCounter mirrors thread.CtrCSCycles (the threading runtime's
// critical-section occupancy counter) without importing the runtime:
// sampled sits below internal/thread in the layer order.
const csCyclesCounter = "sync.cs_cycles"

// Params tunes sampled execution. The rest of the sampler's tuning is
// fixed: see stableWindows here and the executor's skip and window
// constants in internal/core.
type Params struct {
	// WindowIters is the detailed-window length in kernel iterations.
	// The first window of each region doubles as cache/row-buffer
	// warmup and is never compared against a predecessor.
	WindowIters int
	// Tol is the stability tolerance: relative for cycles/iteration,
	// absolute for the fractional signals (CS fraction, bus
	// utilization, row-hit rate).
	Tol float64
}

// stableWindows is K, the consecutive stable windows required before
// a region is declared steady and fast-forwarding may begin.
const stableWindows = 1

// DefaultParams returns the tuning used by the sampled CLIs and
// benchmarks: 8-iteration windows, 4% tolerance.
func DefaultParams() Params {
	return Params{WindowIters: 8, Tol: 0.04}
}

// WithDefaults fills zero fields from DefaultParams so partially
// specified parameters (a CLI that sets only -sample-window) behave.
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	if p.WindowIters <= 0 {
		p.WindowIters = d.WindowIters
	}
	if p.Tol <= 0 {
		p.Tol = d.Tol
	}
	return p
}

// Key renders the parameters as a stable cache-key fragment. The fixed
// tuning (stableWindows and the executor's skip lengths, window-cost
// floor and bail threshold) prints as the values it has always had, so
// persisted sampled runs keep their addresses.
func (p Params) Key() string {
	p = p.WithDefaults()
	return fmt.Sprintf("w=%d,tol=%g,k=1,s0=4,smax=512,minwc=40000,bail=250000", p.WindowIters, p.Tol)
}

// Stats summarizes one sampled run: how much was cycle-simulated, how
// much was extrapolated, and how often the detector bounced back to
// detailed mode.
type Stats struct {
	// DetailedIters is the iterations executed cycle-by-cycle
	// (training iterations included).
	DetailedIters int `json:"detailed_iters"`
	// SkippedIters is the iterations covered by extrapolation.
	SkippedIters int `json:"skipped_iters"`
	// SkippedCycles is the simulated time covered by extrapolation.
	SkippedCycles uint64 `json:"skipped_cycles"`
	// FastForwards counts extrapolation events.
	FastForwards int `json:"fast_forwards"`
	// Reentries counts returns to detailed mode forced by a window
	// that fell out of steady state after a skip.
	Reentries int `json:"reentries"`
}

// SkippedFrac reports the fraction of kernel iterations that were
// extrapolated rather than simulated.
func (s Stats) SkippedFrac() float64 {
	total := s.DetailedIters + s.SkippedIters
	if total == 0 {
		return 0
	}
	return float64(s.SkippedIters) / float64(total)
}

// String renders the stats for CLI footers.
func (s Stats) String() string {
	return fmt.Sprintf("%d iters detailed, %d extrapolated (%.1f%%), %d fast-forwards, %d re-entries",
		s.DetailedIters, s.SkippedIters, 100*s.SkippedFrac(), s.FastForwards, s.Reentries)
}

// Probe is a point-in-time capture of the machine's observable state:
// the clock, every performance counter, and the power meter's
// per-core integrals. Begin one before a detailed window and End it
// after to obtain the window's profile.
type Probe struct {
	cycles uint64
	ctrs   map[string]uint64
	power  []uint64
}

// Begin captures the machine's counters at a window's start.
func Begin(m *machine.Machine) Probe {
	return Probe{
		cycles: m.Eng.Now(),
		ctrs:   m.Ctrs.Values(),
		power:  m.Power.PerCore(),
	}
}

// Window is one detailed window's measured profile: what iters
// cycle-simulated iterations cost in wall cycles, counter events and
// per-core active cycles. It is both the detector's observation and
// the extrapolation's per-iteration model.
type Window struct {
	// Start is the window's first kernel iteration index. The detector
	// uses it to measure the iteration distance between detailed
	// windows (which are separated by skipped regions once sampling
	// engages) when fitting the drift trend.
	Start   int
	Iters   int
	Cycles  uint64
	Ctrs    map[string]uint64
	PerCore []uint64
}

// End closes the probe, returning the deltas accumulated since Begin.
// Counters created mid-window (absent from the probe) delta from
// zero.
func (pr Probe) End(m *machine.Machine, iters int) Window {
	w := Window{
		Iters:   iters,
		Cycles:  m.Eng.Now() - pr.cycles,
		Ctrs:    make(map[string]uint64),
		PerCore: m.Power.PerCore(),
	}
	for name, v := range m.Ctrs.Values() {
		if d := v - pr.ctrs[name]; d != 0 {
			w.Ctrs[name] = d
		}
	}
	for core := range w.PerCore {
		if core < len(pr.power) {
			w.PerCore[core] -= pr.power[core]
		}
	}
	return w
}

// scale rounds v*ratio to the nearest integer.
func scale(v uint64, ratio float64) uint64 {
	return uint64(float64(v)*ratio + 0.5)
}

// signals is the detector's per-window view: the rates whose
// stability defines steady state.
type signals struct {
	cyclesPerIter float64
	csFrac        float64
	busUtil       float64
	rowHitRate    float64
	hasRowAccess  bool
}

// measure derives the detector signals from a window profile. The
// cycles/iteration signal is net of the per-chunk fork/join overhead
// (see SetOverhead); the fractional rates keep the raw window as
// denominator.
func (d *Detector) measure(w Window) signals {
	s := signals{}
	if w.Iters > 0 {
		s.cyclesPerIter = float64(d.net(w)) / float64(w.Iters)
	}
	if w.Cycles > 0 {
		s.csFrac = float64(w.Ctrs[csCyclesCounter]) / float64(w.Cycles)
		s.busUtil = float64(w.Ctrs[counters.BusBusyCycles]) / float64(w.Cycles)
	}
	hits := w.Ctrs[counters.DRAMRowHits]
	misses := w.Ctrs[counters.DRAMRowMisses]
	if hits+misses > 0 {
		s.hasRowAccess = true
		s.rowHitRate = float64(hits) / float64(hits+misses)
	}
	return s
}

// Detector decides when a kernel region has reached steady state. Feed
// it every detailed window in execution order; Steady reports whether
// the region is currently homogeneous enough to extrapolate, and Last
// is the reference window for that extrapolation.
type Detector struct {
	p        Params
	oh       uint64
	have     bool
	prev     signals
	last     Window
	prevWin  Window
	havePrev bool
	stable   int
	steady   bool

	// Least-squares fallback for regions too noisy for pairwise window
	// comparison but well described by a linear trend (Transpose's
	// store-pressure ramp jitters several percent window to window
	// around a clean rise). hist collects same-length windows' (center,
	// cycles/iteration) points; when enough accumulate and a fitted
	// line explains them within tolerance, the region is "fit-steady":
	// extrapolation follows the fitted line, but only as far as the
	// span of the evidence.
	hist      []fitPoint
	histIters int
	fitOK     bool
	fitSlope  float64
	fitAt     float64 // fitted cpi at the last window's center
	fitSpan   float64 // iteration span covered by the fitted points
}

// fitPoint is one window's contribution to the trend fit.
type fitPoint struct {
	center float64
	cpi    float64
}

// SetOverhead records the fixed fork/join cost of one detailed chunk,
// measured by the executor with an empty RunChunk before the first
// window. Every detailed window pays this cost once; the exact run,
// which executes the region as a single chunk, pays it once total. The
// detector subtracts it from each window's cycles/iteration model and
// from each fast-forward (which is always followed by one detailed
// window), so chunking overhead neither biases the extrapolation nor
// accumulates across windows.
func (d *Detector) SetOverhead(oh uint64) { d.oh = oh }

// net is a window's cycle cost with the chunk overhead removed,
// clamped to half the window so a degenerate (overhead-dominated)
// window never underflows.
func (d *Detector) net(w Window) uint64 {
	if d.oh < w.Cycles/2 {
		return w.Cycles - d.oh
	}
	return w.Cycles / 2
}

// NewDetector builds a detector with the given (default-filled)
// parameters.
func NewDetector(p Params) *Detector {
	return &Detector{p: p.WithDefaults()}
}

// Observe feeds one detailed window. The first window is warmup (it
// only establishes the baseline); each later window counts toward the
// stableWindows run when all four signals match its predecessor
// within tolerance, and resets the run when any does not.
func (d *Detector) Observe(w Window) {
	sig := d.measure(w)
	if d.have && d.close(w, sig, d.prev) {
		d.stable++
	} else {
		d.stable = 0
	}
	d.steady = d.stable >= stableWindows
	d.prev = sig
	if d.have {
		d.prevWin = d.last
		d.havePrev = true
	}
	d.last = w
	d.have = true
	d.observeFit(w)
}

// fitMinPoints is the evidence floor for the trend fit; fitMaxPoints
// keeps the fit local so an old phase cannot drag the line.
const (
	fitMinPoints = 4
	fitMaxPoints = 8
)

// observeFit feeds the window to the least-squares trend model and
// revalidates the fit. The model accepts the region as fit-steady when
// a line through the recent windows' cycles/iteration explains them
// with an RMS residual inside the tolerance — a criterion that, unlike
// the pairwise comparison, averages window-to-window noise away
// instead of being defeated by it.
func (d *Detector) observeFit(w Window) {
	d.fitOK = false
	if w.Iters <= 0 {
		return
	}
	if d.histIters == 0 {
		d.histIters = w.Iters
	}
	if w.Iters != d.histIters {
		// A partial tail window measures a different chunk geometry;
		// excluding it keeps the fit on like-for-like points.
		return
	}
	d.hist = append(d.hist, fitPoint{
		center: float64(w.Start) + float64(w.Iters)/2,
		cpi:    float64(d.net(w)) / float64(w.Iters),
	})
	if len(d.hist) > fitMaxPoints {
		d.hist = d.hist[len(d.hist)-fitMaxPoints:]
	}
	if len(d.hist) < fitMinPoints {
		return
	}
	n := float64(len(d.hist))
	var sx, sy, sxx, sxy float64
	for _, p := range d.hist {
		sx += p.center
		sy += p.cpi
		sxx += p.center * p.center
		sxy += p.center * p.cpi
	}
	den := n*sxx - sx*sx
	mean := sy / n
	if den == 0 || mean <= 0 {
		return
	}
	slope := (n*sxy - sx*sy) / den
	icept := (sy - slope*sx) / n
	var rss float64
	for _, p := range d.hist {
		r := p.cpi - (icept + slope*p.center)
		rss += r * r
	}
	if math.Sqrt(rss/n)/mean > d.p.Tol {
		return
	}
	d.fitOK = true
	d.fitSlope = slope
	last := d.hist[len(d.hist)-1]
	d.fitAt = icept + slope*last.center
	d.fitSpan = last.center - d.hist[0].center
}

// close reports whether the new window agrees with the region's model
// within tolerance on every signal. The fractional signals (CS
// fraction, bus utilization, row-hit rate) compare absolutely against
// the previous window; the row-hit rate only when both windows
// actually accessed DRAM — an idle DRAM is steady.
//
// Cycles/iteration compares against the *linear model*, not the raw
// predecessor: with three windows in hand the expected value is the
// previous window's cost plus the fitted slope. A region with a
// constant drift (Transpose's store pressure ramps the whole kernel)
// is then steady — the extrapolator projects the same line — while
// curvature (GSearch's steep warmup decay) and noise both show up as
// model residual and hold the detector off.
func (d *Detector) close(w Window, a, b signals) bool {
	expected := b.cyclesPerIter
	if d.havePrev {
		expected += d.slope() * d.centerGap(d.last, w)
	}
	if relDiff(a.cyclesPerIter, expected) > d.p.Tol {
		return false
	}
	// The fractional signals exist to catch phase changes (a kernel
	// entering a critical-section-heavy or bandwidth-bound regime), not
	// fine noise — a saturated bus jitters a few points window to
	// window without the region being any less steady. Give them 1.5x
	// the cycle tolerance.
	frac := 1.5 * d.p.Tol
	if absDiff(a.csFrac, b.csFrac) > frac {
		return false
	}
	if absDiff(a.busUtil, b.busUtil) > frac {
		return false
	}
	if a.hasRowAccess && b.hasRowAccess && absDiff(a.rowHitRate, b.rowHitRate) > frac {
		return false
	}
	return true
}

// centerGap is the iteration distance between two windows' midpoints.
func (d *Detector) centerGap(from, to Window) float64 {
	return float64(to.Start) + float64(to.Iters)/2 - (float64(from.Start) + float64(from.Iters)/2)
}

// slope is the fitted cycles/iteration drift per iteration across the
// last two windows (zero when unavailable).
func (d *Detector) slope() float64 {
	if !d.havePrev || d.prevWin.Iters <= 0 || d.last.Iters <= 0 {
		return 0
	}
	gap := d.centerGap(d.prevWin, d.last)
	if gap <= 0 {
		return 0
	}
	cpiLast := float64(d.net(d.last)) / float64(d.last.Iters)
	cpiPrev := float64(d.net(d.prevWin)) / float64(d.prevWin.Iters)
	return (cpiLast - cpiPrev) / gap
}

// Steady reports whether the region is in detected steady state —
// either the pairwise stable run reached stableWindows, or the
// least-squares trend fit explains the recent windows within
// tolerance (fit-steady; see observeFit).
func (d *Detector) Steady() bool { return d.steady || d.fitOK }

// StableRun reports the current run of consecutive stable windows —
// nonzero while stability is building toward stableWindows.
func (d *Detector) StableRun() int { return d.stable }

// MaxSkipIters bounds a single fast-forward: the linear drift model is
// trusted only as far as it predicts the per-iteration cost moving by a
// quarter of the tolerance. A steep fitted slope usually means curvature the
// detector cannot see inside one window (GSearch's cache-warming decay
// ratchets a few percent per window, each step inside tolerance), and
// the extrapolation error of a line through a curve grows with the
// square of the projection distance — so drifting regions take many
// short verified skips while flat regions skip without bound (0 means
// unbounded).
func (d *Detector) MaxSkipIters() int {
	if d.fitOK {
		// With a validated trend fit, the fitted line is trusted no
		// farther than the span of the evidence it was fitted through.
		// Each verified post-skip window extends the span, so skips
		// grow organically as the trend keeps holding.
		return int(d.fitSpan)
	}
	w := d.last
	if w.Iters <= 0 || !d.havePrev || d.prevWin.Iters <= 0 {
		return 0
	}
	cpi := float64(d.net(w)) / float64(w.Iters)
	if cpi <= 0 {
		return 0
	}
	// A slope fitted through two windows of a flat region measures
	// noise, and capping skips by it would throttle exactly the regions
	// that are safest to skip. Only a window-to-window move outside the
	// noise band (half the tolerance) is treated as real drift.
	cpiPrev := float64(d.net(d.prevWin)) / float64(d.prevWin.Iters)
	if absDiff(cpi, cpiPrev) <= d.p.Tol/2*cpi {
		return 0
	}
	sl := d.slope()
	if sl < 0 {
		sl = -sl
	}
	if sl == 0 {
		return 0
	}
	lim := d.p.Tol / 4 * cpi / sl
	if lim > 1e9 {
		return 0
	}
	return int(lim)
}

// Extrapolate advances the machine analytically across iters skipped
// iterations and returns the cycles they are modeled to take.
//
// The cycle estimate is trend-corrected: regions can drift slowly —
// each window within tolerance of its predecessor while the
// per-iteration cost ratchets monotonically (GSearch's queue drains,
// so later iterations are cheaper) — and flat extrapolation of the
// last window would integrate that bias over every skipped iteration.
// Fitting a line through the last two windows' cycles/iteration
// (centers measured in iteration space, so skip gaps are handled) and
// projecting it to the skipped region's midpoint cancels the
// first-order drift. The projected mean cost is clamped to ±50% of
// the last window's — a trend strong enough to leave that band is a
// phase change, which the next detailed window will catch.
//
// Counters and per-core power scale by modeled-cycles ratio rather
// than iteration ratio: under drift, event counts track the work per
// iteration, so scaling by time keeps rates (bus utilization, CS
// fraction) consistent with the cycle estimate.
func (d *Detector) Extrapolate(m *machine.Machine, iters int) uint64 {
	w := d.last
	if w.Iters <= 0 || iters <= 0 || w.Cycles == 0 {
		return 0
	}
	cpi := float64(d.net(w)) / float64(w.Iters)
	// Project the fitted line to the skipped region's midpoint. A
	// fit-steady region projects the least-squares line (anchored at
	// the fitted — noise-smoothed — value for the last window); a
	// pairwise-steady region projects the two-point slope.
	var est float64
	if d.fitOK {
		// Half-weight rising projections beyond the last fitted point:
		// cost ramps (Transpose's store pressure) saturate, and a line
		// through a saturating curve overshoots upward — shrinking the
		// extension toward flat halves that overshoot. Falling trends
		// (GSearch's queue drain) persist to the region's end, so they
		// project at full weight.
		sl := d.fitSlope
		if sl > 0 {
			sl *= 0.5
		}
		est = d.fitAt + sl*(float64(w.Iters)/2+float64(iters)/2)
	} else {
		est = cpi + d.slope()*(float64(w.Iters)/2+float64(iters)/2)
	}
	if est < 0.5*cpi {
		est = 0.5 * cpi
	}
	if est > 1.5*cpi {
		est = 1.5 * cpi
	}
	ff := float64(iters) * est
	// Every fast-forward is followed by one detailed window whose
	// fork/join overhead the contiguous exact run would not pay; fold
	// the compensation into the skip so totals stay unbiased.
	if ff > float64(d.oh) {
		ff -= float64(d.oh)
	}
	ratio := ff / float64(d.net(w))
	for name, delta := range w.Ctrs {
		m.Ctrs.Counter(name).Add(scale(delta, ratio))
	}
	for core, delta := range w.PerCore {
		if delta != 0 {
			m.Power.AddActiveCycles(core, scale(delta, ratio))
		}
	}
	return uint64(ff + 0.5)
}

// Reset clears all detector state (a new region begins); the
// parameters and the fork/join overhead stay.
func (d *Detector) Reset() { *d = Detector{p: d.p, oh: d.oh} }

func relDiff(a, b float64) float64 {
	diff := absDiff(a, b)
	base := b
	if a > b {
		base = a
	}
	if base == 0 {
		return 0
	}
	return diff / base
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

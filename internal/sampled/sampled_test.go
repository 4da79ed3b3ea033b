package sampled

import (
	"strings"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/machine"
)

// win builds a synthetic window profile with no counter deltas.
func win(start, iters int, cycles uint64) Window {
	return Window{Start: start, Iters: iters, Cycles: cycles, Ctrs: map[string]uint64{}}
}

func TestParamsWithDefaults(t *testing.T) {
	if got, want := (Params{}).WithDefaults(), DefaultParams(); got != want {
		t.Errorf("zero params filled to %+v, want %+v", got, want)
	}
	p := Params{WindowIters: 16}.WithDefaults()
	if p.WindowIters != 16 {
		t.Errorf("explicit WindowIters overwritten: %d", p.WindowIters)
	}
	if p.Tol != DefaultParams().Tol {
		t.Errorf("unset fields not defaulted: %+v", p)
	}
	if got, want := p.Key(), "w=16,tol=0.04,k=1,s0=4,smax=512,minwc=40000,bail=250000"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestStatsSkippedFrac(t *testing.T) {
	if f := (Stats{}).SkippedFrac(); f != 0 {
		t.Errorf("empty stats frac = %v", f)
	}
	s := Stats{DetailedIters: 25, SkippedIters: 75}
	if f := s.SkippedFrac(); f != 0.75 {
		t.Errorf("frac = %v, want 0.75", f)
	}
	if !strings.Contains(s.String(), "75.0%") {
		t.Errorf("String() = %q", s)
	}
}

// A flat region becomes steady after warmup plus stableWindows
// confirming windows, and an off-profile window knocks it back out.
func TestDetectorPairwiseSteady(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.Observe(win(0, 8, 8000)) // warmup: establishes the baseline
	if d.Steady() {
		t.Fatal("steady after warmup window alone")
	}
	d.Observe(win(8, 8, 8000))
	if !d.Steady() {
		t.Fatal("flat region not steady after confirming window")
	}
	if d.StableRun() != 1 {
		t.Errorf("StableRun = %d, want 1", d.StableRun())
	}
	d.Observe(win(16, 8, 16000)) // phase change: cost doubles
	if d.steady {
		t.Fatal("pairwise-steady survived a 2x cost step")
	}
}

// The fractional signals (CS fraction, bus utilization, DRAM row-hit
// rate) catch a phase change that leaves cycles/iteration flat; a
// row-hit rate only counts when both windows touched DRAM.
func TestDetectorFractionalSignals(t *testing.T) {
	with := func(start int, ctrs map[string]uint64) Window {
		w := win(start, 8, 8000)
		w.Ctrs = ctrs
		return w
	}
	for _, tc := range []struct {
		name   string
		a, b   map[string]uint64
		steady bool
	}{
		{"cs onset", map[string]uint64{}, map[string]uint64{csCyclesCounter: 4000}, false},
		{"bus onset", map[string]uint64{}, map[string]uint64{counters.BusBusyCycles: 4000}, false},
		{"row-hit drop", map[string]uint64{counters.DRAMRowHits: 90, counters.DRAMRowMisses: 10},
			map[string]uint64{counters.DRAMRowHits: 50, counters.DRAMRowMisses: 50}, false},
		{"dram goes idle", map[string]uint64{counters.DRAMRowHits: 90, counters.DRAMRowMisses: 10}, map[string]uint64{}, true},
		{"small bus jitter", map[string]uint64{counters.BusBusyCycles: 4000}, map[string]uint64{counters.BusBusyCycles: 4200}, true},
	} {
		d := NewDetector(DefaultParams())
		d.Observe(with(0, tc.a))
		d.Observe(with(8, tc.b))
		if d.Steady() != tc.steady {
			t.Errorf("%s: steady = %v, want %v", tc.name, d.Steady(), tc.steady)
		}
	}
}

// A slow monotone drift — each window within tolerance of the linear
// model — stays steady: the detector compares against the projected
// trend, not the raw predecessor.
func TestDetectorLinearDriftSteady(t *testing.T) {
	d := NewDetector(DefaultParams())
	cpi := []uint64{1000, 1010, 1020, 1030, 1040}
	for i, c := range cpi {
		d.Observe(win(8*i, 8, 8*c))
	}
	if !d.Steady() {
		t.Fatal("linear drift of 1% per window not steady")
	}
}

// A region too noisy for pairwise comparison but well described by a
// line goes fit-steady once fitMinPoints same-length windows
// accumulate, and the skip bound equals the evidence span.
func TestDetectorFitSteady(t *testing.T) {
	d := NewDetector(DefaultParams())
	// +-3.5% alternation around 1000: every pairwise step is ~7%,
	// beyond the 4% tolerance, but the RMS residual of a fitted line
	// stays within it.
	cpi := []uint64{1035, 965, 1035, 965}
	for i, c := range cpi {
		d.Observe(win(8*i, 8, 8*c))
		if d.StableRun() != 0 {
			t.Fatalf("window %d: pairwise comparison accepted a 7%% jump", i)
		}
	}
	if !d.Steady() {
		t.Fatal("noisy-but-linear region not fit-steady after 4 windows")
	}
	// Evidence spans window centers 4..28.
	if got := d.MaxSkipIters(); got != 24 {
		t.Errorf("fit-steady MaxSkipIters = %d, want evidence span 24", got)
	}
	d.SetOverhead(100)
	d.Reset()
	if d.Steady() || d.StableRun() != 0 || d.MaxSkipIters() != 0 {
		t.Error("Reset left detector state behind")
	}
	if d.p != DefaultParams() || d.oh != 100 {
		t.Errorf("Reset dropped the tolerance or the fork/join overhead: p=%+v oh=%d", d.p, d.oh)
	}
}

// A partial tail window (different length) must not enter the fit
// history: its chunk geometry is not comparable.
func TestDetectorFitSkipsPartialWindows(t *testing.T) {
	d := NewDetector(DefaultParams())
	cpi := []uint64{1035, 965, 1035}
	for i, c := range cpi {
		d.Observe(win(8*i, 8, 8*c))
	}
	d.Observe(win(24, 3, 3*965)) // partial tail, fourth point
	if d.Steady() {
		t.Fatal("fit accepted a partial window as evidence")
	}
}

func TestMaxSkipItersDriftBound(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.Observe(win(0, 8, 8000))
	d.Observe(win(8, 8, 8000))
	if got := d.MaxSkipIters(); got != 0 {
		t.Errorf("flat region bound = %d, want 0 (unbounded)", got)
	}
	d = NewDetector(DefaultParams())
	d.Observe(win(0, 8, 8000))
	d.Observe(win(8, 8, 7680)) // cpi 1000 -> 960: real drift, just inside tol
	if !d.Steady() {
		t.Fatal("4% drift should still be steady")
	}
	got := d.MaxSkipIters()
	if got < 1 || got > 4 {
		// slope -5/iter at cpi 960: trusted for Tol/4*cpi/|slope| ~ 2.
		t.Errorf("drifting region bound = %d, want a short leash (1..4)", got)
	}
}

// Extrapolate projects the two-window trend to the skipped region's
// midpoint and scales counters by modeled-cycle ratio.
func TestExtrapolateTrendAndCounters(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	d := NewDetector(DefaultParams())
	d.Observe(win(0, 8, 8000))
	last := win(8, 8, 7680)
	last.Ctrs["x"] = 100
	d.Observe(last)
	if !d.Steady() {
		t.Fatal("not steady")
	}
	ff := d.Extrapolate(m, 8)
	// cpi 960, slope -5: projected midpoint cost 960 - 5*(4+4) = 920,
	// so 8 iterations model to 7360 cycles.
	if ff != 7360 {
		t.Errorf("ff = %d, want 7360", ff)
	}
	// Counters scale by cycle ratio 7360/7680.
	if got := m.Ctrs.Counter("x").Read(); got != 96 {
		t.Errorf("counter x advanced by %d, want 96", got)
	}
}

// The measured fork/join overhead is subtracted from the model (net
// cycles) and refunded once per fast-forward.
func TestOverheadCompensation(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	d := NewDetector(DefaultParams())
	d.SetOverhead(100)
	d.Observe(win(0, 8, 8100))
	d.Observe(win(8, 8, 8100)) // net 8000 each: flat at cpi 1000
	if !d.Steady() {
		t.Fatal("not steady")
	}
	if ff := d.Extrapolate(m, 8); ff != 7900 {
		t.Errorf("ff = %d, want 8*1000 - 100 = 7900", ff)
	}
}

// Probe End reports counter deltas since Begin, including counters
// created mid-window.
func TestProbeDeltas(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	m.Ctrs.Counter("pre").Add(7)
	pr := Begin(m)
	m.Ctrs.Counter("pre").Add(5)
	m.Ctrs.Counter("fresh").Add(3)
	w := pr.End(m, 4)
	if w.Iters != 4 {
		t.Errorf("iters = %d", w.Iters)
	}
	if w.Ctrs["pre"] != 5 || w.Ctrs["fresh"] != 3 {
		t.Errorf("deltas = %v, want pre:5 fresh:3", w.Ctrs)
	}
	if _, ok := w.Ctrs["sim.events"]; ok && w.Ctrs["sim.events"] == 0 {
		t.Errorf("zero delta recorded")
	}
}

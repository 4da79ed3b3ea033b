package core

import (
	"strings"
	"testing"

	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// waveKernel is a synthetic kernel whose critical-section cost is a
// function of the iteration index — the knob the hybrid tests use to
// script exactly when the model's trained expectations break.
type waveKernel struct {
	name    string
	iters   int
	compute uint64
	cs      func(it int) uint64

	lock   thread.Lock
	ranges [][2]int
}

func (k *waveKernel) Name() string    { return k.name }
func (k *waveKernel) Iterations() int { return k.iters }

func (k *waveKernel) RunChunk(master *thread.Ctx, n, lo, hi int) {
	k.ranges = append(k.ranges, [2]int{lo, hi})
	master.Fork(n, func(tc *thread.Ctx) {
		for it := lo; it < hi; it++ {
			myLo, myHi := tc.Range(0, 64)
			share := uint64(myHi - myLo)
			tc.Compute(k.compute * share / 64)
			if c := k.cs(it); c > 0 {
				tc.Critical(&k.lock, func() { tc.Compute(c) })
			}
		}
	})
}

func (k *waveKernel) coveredExactly(n int) bool {
	next := 0
	for _, r := range k.ranges {
		if r[0] != next || r[1] < r[0] {
			return false
		}
		next = r[1]
	}
	return next == n
}

func runHybridOn(t *testing.T, h Hybrid, k *waveKernel, cores int) (RunResult, *invariant.Checker) {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig().WithCores(cores))
	ck := invariant.New()
	m.AttachChecker(ck)
	w := &synthWorkload{name: k.name, kernels: []Kernel{k}}
	return NewController(h).Run(m, w), ck
}

func TestHybridParamsWithDefaults(t *testing.T) {
	got := HybridParams{}.WithDefaults()
	if got != DefaultHybridParams() {
		t.Errorf("zero params resolve to %+v, want defaults %+v", got, DefaultHybridParams())
	}
	p := HybridParams{ProbeIters: 7, ResidualLow: 0.01}
	p = p.WithDefaults()
	if p.ProbeIters != 7 || p.ResidualLow != 0.01 {
		t.Errorf("explicit fields overwritten: %+v", p)
	}
	if p.Monitor.Interval == 0 || p.MaxProbes == 0 || p.ResidualHigh == 0 {
		t.Errorf("zero fields not filled: %+v", p)
	}
	if err := DefaultHybridParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestHybridParamsValidate(t *testing.T) {
	mod := func(f func(*HybridParams)) HybridParams {
		p := DefaultHybridParams()
		f(&p)
		return p
	}
	cases := []struct {
		name string
		p    HybridParams
		want string
	}{
		{"negative probe iters", mod(func(p *HybridParams) { p.ProbeIters = -1 }), "ProbeIters"},
		{"min gain one", mod(func(p *HybridParams) { p.MinGain = 1.0 }), "MinGain"},
		{"negative min gain", mod(func(p *HybridParams) { p.MinGain = -0.1 }), "MinGain"},
		{"no probes", mod(func(p *HybridParams) { p.MaxProbes = -2 }), "MaxProbes"},
		{"inverted hysteresis", mod(func(p *HybridParams) { p.ResidualHigh = 0.05 }), "hysteresis"},
		{"zero low threshold", mod(func(p *HybridParams) { p.ResidualLow = -1 }), "hysteresis"},
		{"decay above one", mod(func(p *HybridParams) { p.ResidualDecay = 1.5 }), "ResidualDecay"},
		{"negative recheck", mod(func(p *HybridParams) { p.RecheckIntervals = -1 }), "RecheckIntervals"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestHybridStableKernelStaysModel: on a kernel whose behaviour never
// departs from its training, the hybrid is the adaptive pipeline plus
// an audit — it must stay in model mode for the whole run.
func TestHybridStableKernelStaysModel(t *testing.T) {
	k := &waveKernel{name: "stable", iters: 1000, compute: 2000,
		cs: func(int) uint64 { return 50 }}
	res, ck := runHybridOn(t, Hybrid{}, k, 8)
	if err := ck.Err(); err != nil {
		t.Fatalf("invariants violated on a stable kernel: %v", err)
	}
	kr := res.Kernels[0]
	if kr.Fallbacks != 0 || kr.Recoveries != 0 {
		t.Errorf("stable kernel: %d fallbacks / %d recoveries, want 0 / 0", kr.Fallbacks, kr.Recoveries)
	}
	for i, ph := range kr.Phases {
		if ph.Mode != "model" {
			t.Errorf("phase %d mode %q, want model", i, ph.Mode)
		}
	}
	if kr.TrainIters == 0 {
		t.Error("hybrid did not train (sampling + probes should both count)")
	}
	if !k.coveredExactly(1000) {
		t.Errorf("iteration ranges do not partition [0, 1000): %v", k.ranges)
	}
	if d := kr.Decision.Threads; d < 1 || d > 8 {
		t.Errorf("decided %d threads on an 8-core machine", d)
	}
}

// TestHybridShortKernelStatic: a kernel shorter than the minimum
// training window cannot be sampled; the hybrid must fall through to
// the policy's static decision without training or probing.
func TestHybridShortKernelStatic(t *testing.T) {
	k := &waveKernel{name: "tiny", iters: 4, compute: 1000,
		cs: func(int) uint64 { return 0 }}
	res, ck := runHybridOn(t, Hybrid{}, k, 8)
	if err := ck.Err(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	kr := res.Kernels[0]
	if kr.TrainIters != 0 {
		t.Errorf("short kernel trained %d iterations", kr.TrainIters)
	}
	if len(kr.Phases) != 0 {
		t.Errorf("short kernel recorded %d phases, want none (static path)", len(kr.Phases))
	}
	if !k.coveredExactly(4) {
		t.Errorf("iteration ranges do not partition [0, 4): %v", k.ranges)
	}
}

// TestHybridFallbackAndRecovery scripts the full state-machine arc.
// The kernel's critical-section cost flips between cheap and ruinous
// every monitor interval for the first stretch — each interval drifts
// against the last calibration and pumps the residual EWMA over the
// fallback threshold — then settles to a constant cost for a long
// tail, which decays the residual below the recovery threshold. The
// hybrid must fall back to measured mode during the storm, recover to
// model mode in the calm, and do each at most twice (hysteresis).
func TestHybridFallbackAndRecovery(t *testing.T) {
	iv := DefaultHybridParams().Monitor.Interval
	k := &waveKernel{name: "storm-then-calm", iters: 1920, compute: 2000,
		cs: func(it int) uint64 {
			if it >= 576 {
				// Calm: pure compute, perfectly uniform intervals, so the
				// residual's deviation stream is exactly zero and decays.
				return 0
			}
			if (it/iv)%2 == 0 {
				return 30
			}
			return 3000
		}}
	res, ck := runHybridOn(t, Hybrid{}, k, 8)
	if err := ck.Err(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	kr := res.Kernels[0]
	if kr.Fallbacks < 1 {
		t.Errorf("model-breaking storm never caused a fallback (%d retrains)", kr.Retrains)
	}
	if kr.Recoveries < 1 {
		t.Errorf("stable tail never recovered to model mode (%d fallbacks, residual stuck?)", kr.Fallbacks)
	}
	if kr.Fallbacks > 2 || kr.Recoveries > 2 {
		t.Errorf("state machine thrashed: %d fallbacks / %d recoveries", kr.Fallbacks, kr.Recoveries)
	}
	var sawMeasured, sawFallback, sawRecover bool
	for _, ph := range kr.Phases {
		if ph.Mode == "measured" {
			sawMeasured = true
		}
		switch ph.Trigger {
		case "fallback":
			sawFallback = true
		case "recover":
			sawRecover = true
		}
	}
	if !sawMeasured || !sawFallback || !sawRecover {
		t.Errorf("phase log misses the arc: measured=%v fallback=%v recover=%v (phases %+v)",
			sawMeasured, sawFallback, sawRecover, kr.Phases)
	}
	if !k.coveredExactly(1920) {
		t.Errorf("iteration ranges do not partition [0, 1920): %v", k.ranges)
	}
}

// stepKernel builds the illegal-fallback scenario: one modest sustained
// step in critical-section cost, big enough to trip the binary drift
// test but integrating to a residual well under the raised high
// threshold the test configures — so a fallback at that drift is
// illegal, and only the armed fault takes it.
func stepKernel() *waveKernel {
	return &waveKernel{name: "step", iters: 900, compute: 4000,
		cs: func(it int) uint64 {
			if it < 300 {
				return 200
			}
			return 420
		}}
}

// stepHP raises the fallback threshold far above anything the single
// benign step can integrate to (the straddling interval plus the
// drifting one observe ~0.44), so the forced fallback is unambiguously
// residual-unjustified while the clean controller still retrains
// normally.
func stepHP() HybridParams {
	hp := DefaultHybridParams()
	hp.ResidualHigh = 0.8
	return hp
}

// TestHybridIllegalFallbackCaught proves the ctl-hybrid-state
// invariant has teeth: a deliberately buggy controller that falls back
// without residual evidence must be named by the checker, while the
// clean controller on the identical kernel stays silent.
func TestHybridIllegalFallbackCaught(t *testing.T) {
	res, control := runHybridOn(t, Hybrid{HP: stepHP()}, stepKernel(), 8)
	if err := control.Err(); err != nil {
		t.Fatalf("control run not clean: %v", err)
	}
	if res.Kernels[0].Fallbacks != 0 {
		t.Fatalf("control fell back %d times on a single benign step — the mutation scenario is wrong",
			res.Kernels[0].Fallbacks)
	}
	if res.Kernels[0].Retrains < 1 {
		t.Fatal("step never drifted — the fault path would not execute")
	}

	resF, ck := runHybridOn(t, Hybrid{HP: stepHP(), FaultIllegalFallback: true}, stepKernel(), 8)
	if resF.Kernels[0].Fallbacks < 1 {
		t.Fatal("fault armed but no fallback happened")
	}
	if !ck.Violated("ctl-hybrid-state") {
		t.Fatalf("illegal fallback not caught by ctl-hybrid-state; checker: %s", ck.Report())
	}
}

// keyedRun executes a controller through a keyed RunSpec in runs.
func keyedRun(runs *Runs, cfg machine.Config, wkey string, f Factory, ctl Control) RunResult {
	return RunSpec{Cfg: cfg, Workload: wkey, Factory: f, Control: ctl}.Run(runs)
}

// TestRunHybridKeyedMemoizes: identical (config, wkey, tuning) calls
// must simulate once; different tunings and empty keys must not
// collide.
func TestRunHybridKeyedMemoizes(t *testing.T) {
	cfg := machine.DefaultConfig().WithCores(8)
	f := newSynthFactory(400, 2000, 50, 0)
	runs := NewRuns(0, nil)

	h0, _ := runs.Stats()
	r1 := keyedRun(runs, cfg, "synth/hybrid-memo", f, Control{Policy: Hybrid{}})
	r2 := keyedRun(runs, cfg, "synth/hybrid-memo", f, Control{Policy: Hybrid{}})
	h1, _ := runs.Stats()
	if h1 == h0 {
		t.Error("second identical call did not hit the cache")
	}
	if r1.TotalCycles != r2.TotalCycles || r1.Policy != r2.Policy {
		t.Errorf("memoized result differs: %d vs %d cycles", r1.TotalCycles, r2.TotalCycles)
	}

	// A different tuning is a different run.
	hp := DefaultHybridParams()
	hp.ProbeIters = 12
	r3 := keyedRun(runs, cfg, "synth/hybrid-memo", f, Control{Policy: Hybrid{HP: hp}})
	if r3.Kernels[0].TrainIters == r1.Kernels[0].TrainIters && r3.TotalCycles == r1.TotalCycles {
		t.Log("different tuning produced identical run (possible, but suspicious)")
	}
	h2, m2 := runs.Stats()
	_ = h2
	r4 := keyedRun(runs, cfg, "synth/hybrid-memo", f, Control{Policy: Hybrid{HP: hp}})
	h3, m3 := runs.Stats()
	if m3 != m2 {
		t.Error("repeated tuned call re-simulated (tuning not in the content address?)")
	}
	if h3 == h2 {
		t.Error("repeated tuned call did not hit the cache")
	}
	if r4.TotalCycles != r3.TotalCycles {
		t.Errorf("memoized tuned result differs: %d vs %d", r3.TotalCycles, r4.TotalCycles)
	}

	// Empty workload key bypasses the cache entirely.
	_, mBefore := runs.Stats()
	keyedRun(runs, cfg, "", f, Control{Policy: Hybrid{}})
	_, mAfter := runs.Stats()
	if mAfter != mBefore {
		t.Error("empty wkey touched the cache")
	}
}

// TestRunHillClimbKeyedMemoizes: same contract for the measured
// baseline's cache entry point.
func TestRunHillClimbKeyedMemoizes(t *testing.T) {
	cfg := machine.DefaultConfig().WithCores(8)
	f := newSynthFactory(400, 2000, 50, 0)
	runs := NewRuns(0, nil)

	h0, _ := runs.Stats()
	r1 := keyedRun(runs, cfg, "synth/hc-memo", f, Control{Policy: HillClimb{}})
	r2 := keyedRun(runs, cfg, "synth/hc-memo", f, Control{Policy: HillClimb{}})
	h1, _ := runs.Stats()
	if h1 == h0 {
		t.Error("second identical call did not hit the cache")
	}
	if r1.TotalCycles != r2.TotalCycles {
		t.Errorf("memoized result differs: %d vs %d cycles", r1.TotalCycles, r2.TotalCycles)
	}

	_, m0 := runs.Stats()
	keyedRun(runs, cfg, "synth/hc-memo", f, Control{Policy: HillClimb{ProbeIters: 16}})
	_, m1 := runs.Stats()
	if m1 == m0 {
		t.Error("different tuning hit the same cache entry")
	}

	_, mBefore := runs.Stats()
	keyedRun(runs, cfg, "", f, Control{Policy: HillClimb{}})
	_, mAfter := runs.Stats()
	if mAfter != mBefore {
		t.Error("empty wkey touched the cache")
	}
}

// TestImprovesBoundary pins the strictness of the probe comparison:
// landing exactly on the MinGain boundary must NOT displace the
// incumbent.
func TestImprovesBoundary(t *testing.T) {
	if improves(95, 100, 0.05) {
		t.Error("exactly on the boundary counted as an improvement (must be strict)")
	}
	if !improves(94.999, 100, 0.05) {
		t.Error("clearly past the boundary not counted")
	}
	if improves(100, 100, 0) {
		t.Error("equality with zero MinGain counted as an improvement")
	}
	if !improves(99, 100, 0) {
		t.Error("any strict win with zero MinGain must count")
	}
}

// TestDisagreement pins the model-vs-measurement distance metric.
func TestDisagreement(t *testing.T) {
	cases := []struct {
		model, meas int
		want        float64
	}{
		{4, 4, 0},
		{8, 4, 0.5},
		{4, 8, 0.5},
		{0, 0, 0},
		{1, 32, 31.0 / 32.0},
	}
	for _, tc := range cases {
		if got := disagreement(tc.model, tc.meas); got != tc.want {
			t.Errorf("disagreement(%d, %d) = %g, want %g", tc.model, tc.meas, got, tc.want)
		}
	}
}

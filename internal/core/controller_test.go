package core

import (
	"testing"
	"testing/quick"

	"fdt/internal/machine"
	"fdt/internal/thread"
)

// synthKernel is a configurable kernel for controller tests: each
// iteration does computeCycles of parallel work (split across the
// team) and optionally csCycles inside a critical section per thread.
type synthKernel struct {
	name          string
	iters         int
	computeCycles uint64
	csCycles      uint64
	memLines      int // cold lines streamed per iteration (bus demand)
	base          uint64
	nextLine      int

	lock thread.Lock

	// chunkTeams records the team size of every RunChunk call;
	// ranges records the iteration ranges, in call order.
	chunkTeams []int
	ranges     [][2]int
}

// coveredExactly reports whether the recorded chunk ranges partition
// [0, n) in order without gaps or overlaps.
func (k *synthKernel) coveredExactly(n int) bool {
	next := 0
	for _, r := range k.ranges {
		if r[0] != next || r[1] < r[0] {
			return false
		}
		next = r[1]
	}
	return next == n
}

func (k *synthKernel) Name() string    { return k.name }
func (k *synthKernel) Iterations() int { return k.iters }

func (k *synthKernel) RunChunk(master *thread.Ctx, n, lo, hi int) {
	k.chunkTeams = append(k.chunkTeams, n)
	k.ranges = append(k.ranges, [2]int{lo, hi})
	master.Fork(n, func(tc *thread.Ctx) {
		for it := lo; it < hi; it++ {
			myLo, myHi := tc.Range(0, 64)
			share := uint64(myHi - myLo)
			tc.Compute(k.computeCycles * share / 64)
			// Each thread streams its share of fresh lines, so the
			// kernel's bus demand scales with the team like a real
			// data-parallel loop's. The shared cursor is safe: the
			// sim kernel runs one process at a time.
			lines := k.memLines * (myHi - myLo) / 64
			for l := 0; l < lines; l++ {
				tc.Load(k.base + uint64(k.nextLine)*64)
				k.nextLine++
			}
			if k.csCycles > 0 {
				tc.Critical(&k.lock, func() { tc.Compute(k.csCycles) })
			}
		}
	})
}

type synthWorkload struct {
	name    string
	kernels []Kernel
}

func (w *synthWorkload) Name() string      { return w.name }
func (w *synthWorkload) Kernels() []Kernel { return w.kernels }

func newSynthFactory(iters int, compute, cs uint64, memLines int) Factory {
	return func(m *machine.Machine) Workload {
		k := &synthKernel{
			name:          "synth",
			iters:         iters,
			computeCycles: compute,
			csCycles:      cs,
			memLines:      memLines,
			base:          m.Alloc(64 << 20),
		}
		return &synthWorkload{name: "synth", kernels: []Kernel{k}}
	}
}

func TestStaticPolicySkipsTraining(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(10, 1000, 0, 0)
	w := f(m)
	res := NewController(Static{N: 4}).Run(m, w)
	k := w.Kernels()[0].(*synthKernel)
	if len(k.chunkTeams) != 1 || k.chunkTeams[0] != 4 {
		t.Errorf("chunk teams = %v, want single chunk at 4 threads", k.chunkTeams)
	}
	if res.Kernels[0].TrainIters != 0 {
		t.Errorf("static policy trained %d iterations", res.Kernels[0].TrainIters)
	}
}

func TestTrainingRunsSingleThreaded(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(1000, 500, 25, 0)
	w := f(m)
	res := NewController(SAT{}).Run(m, w)
	k := w.Kernels()[0].(*synthKernel)
	ti := res.Kernels[0].TrainIters
	if ti < 3 {
		t.Fatalf("trained %d iterations, want >= stability window", ti)
	}
	for i := 0; i < ti; i++ {
		if k.chunkTeams[i] != 1 {
			t.Errorf("training chunk %d used %d threads, want 1", i, k.chunkTeams[i])
		}
	}
}

func TestSATStopsAtStability(t *testing.T) {
	// A perfectly regular kernel stabilizes in exactly the window.
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(10000, 500, 25, 0)
	w := f(m)
	res := NewController(SAT{}).Run(m, w)
	ti := res.Kernels[0].TrainIters
	if ti != 3 {
		t.Errorf("trained %d iterations, want 3 (stability window)", ti)
	}
	if ti > 100 {
		t.Errorf("training exceeded 1%% cap: %d", ti)
	}
}

func TestSATPredictsSqrtRule(t *testing.T) {
	// compute=960 split over... per iteration single-threaded:
	// T_NoCS ~ 960, T_CS = 60 -> P_CS = sqrt(16) = 4.
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(1000, 960, 60, 0)
	w := f(m)
	res := NewController(SAT{}).Run(m, w)
	d := res.Kernels[0].Decision
	if d.PCS != 4 {
		t.Errorf("PCS = %d (csfrac %.4f), want 4", d.PCS, d.CSFraction)
	}
	k := w.Kernels()[0].(*synthKernel)
	last := k.chunkTeams[len(k.chunkTeams)-1]
	if last != 4 {
		t.Errorf("execution used %d threads, want 4", last)
	}
}

func TestSATUnlimitedWithoutCriticalSection(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(1000, 500, 0, 0)
	w := f(m)
	res := NewController(SAT{}).Run(m, w)
	d := res.Kernels[0].Decision
	if d.Threads != 32 || d.PCS != 0 {
		t.Errorf("no-CS kernel: threads=%d pcs=%d, want 32/0", d.Threads, d.PCS)
	}
}

func TestBATEarlyOutForComputeBoundKernel(t *testing.T) {
	// A kernel that never touches the bus cannot be BW-limited: BAT
	// must early-out after 10000 cycles instead of training 1% of a
	// huge loop.
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(100000, 5000, 0, 0)
	w := f(m)
	res := NewController(BAT{}).Run(m, w)
	kr := res.Kernels[0]
	if kr.TrainIters >= 1000 {
		t.Errorf("BAT trained %d iterations, early-out should have fired", kr.TrainIters)
	}
	if kr.Decision.Threads != 32 {
		t.Errorf("threads = %d, want 32 for unlimited kernel", kr.Decision.Threads)
	}
}

func TestBATDetectsBandwidthLimit(t *testing.T) {
	// Iterations streaming cold lines: single-thread bus utilization
	// is meaningful and BAT must pick a finite thread count well
	// below the core count.
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(2000, 50, 0, 16)
	w := f(m)
	res := NewController(BAT{}).Run(m, w)
	d := res.Kernels[0].Decision
	if d.PBW == 0 || d.PBW > 16 {
		t.Errorf("PBW = %d (bu1 %.3f), want a finite saturation count <= 16", d.PBW, d.BusUtil1)
	}
	if d.Threads != d.PBW {
		t.Errorf("threads = %d, want PBW = %d", d.Threads, d.PBW)
	}
}

func TestCombinedTakesMin(t *testing.T) {
	// CS-heavy kernel with modest memory traffic: SAT's limit is the
	// binding one and Combined must agree with SAT.
	m1 := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(1000, 960, 60, 2)
	resSAT := NewController(SAT{}).Run(m1, f(m1))

	m2 := machine.MustNew(machine.DefaultConfig())
	resComb := NewController(Combined{}).Run(m2, f(m2))

	if resComb.Kernels[0].Decision.Threads > resSAT.Kernels[0].Decision.Threads {
		t.Errorf("combined chose %d threads > SAT's %d",
			resComb.Kernels[0].Decision.Threads, resSAT.Kernels[0].Decision.Threads)
	}
	if resComb.Kernels[0].Decision.PCS == 0 {
		t.Error("combined did not evaluate SAT")
	}
}

func TestPerKernelDecisions(t *testing.T) {
	// A two-kernel workload gets independent decisions (the MTwister
	// property).
	f := func(m *machine.Machine) Workload {
		k1 := &synthKernel{name: "k1", iters: 500, computeCycles: 400, csCycles: 0, base: m.Alloc(1 << 20)}
		k2 := &synthKernel{name: "k2", iters: 500, computeCycles: 400, csCycles: 100, base: m.Alloc(1 << 20)}
		return &synthWorkload{name: "two", kernels: []Kernel{k1, k2}}
	}
	m := machine.MustNew(machine.DefaultConfig())
	res := NewController(Combined{}).Run(m, f(m))
	if len(res.Kernels) != 2 {
		t.Fatalf("got %d kernel results, want 2", len(res.Kernels))
	}
	if res.Kernels[0].Decision.Threads <= res.Kernels[1].Decision.Threads {
		t.Errorf("k1 (no CS) got %d threads, k2 (heavy CS) got %d — want k1 > k2",
			res.Kernels[0].Decision.Threads, res.Kernels[1].Decision.Threads)
	}
}

func TestAvgThreadsWeighted(t *testing.T) {
	r := RunResult{Kernels: []KernelResult{
		{Decision: Decision{Threads: 32}, Cycles: 100},
		{Decision: Decision{Threads: 12}, Cycles: 300},
	}}
	want := (32.0*100 + 12.0*300) / 400
	if got := r.AvgThreads(); got != want {
		t.Errorf("AvgThreads = %v, want %v", got, want)
	}
}

func TestOracleFindsBestStatic(t *testing.T) {
	// CS-heavy kernel on a small machine: the oracle's pick must be
	// near the analytic optimum and its time must be minimal.
	cfg := machine.DefaultConfig().WithCores(8)
	f := newSynthFactory(60, 960, 60, 0)
	or := Oracle(NewRuns(0, nil), RunSpec{Cfg: cfg, Factory: f}, nil, 0.01)
	if or.Threads < 3 || or.Threads > 5 {
		t.Errorf("oracle picked %d threads, want ~4", or.Threads)
	}
	for i, r := range or.Sweep {
		if r.TotalCycles < or.Run.TotalCycles*99/100 {
			t.Errorf("sweep[%d] beats oracle by >1%%: %d vs %d", i, r.TotalCycles, or.Run.TotalCycles)
		}
	}
}

func TestTinyKernelSkipsTraining(t *testing.T) {
	// A kernel with fewer iterations than MinIterations cannot be
	// peeled meaningfully: it must run at the static fallback instead
	// of being eaten by single-threaded training.
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(4, 1000, 50, 0)
	w := f(m)
	res := NewController(Combined{}).Run(m, w)
	kr := res.Kernels[0]
	if kr.TrainIters != 0 {
		t.Errorf("tiny kernel trained %d iterations", kr.TrainIters)
	}
	if kr.Decision.Threads != 32 {
		t.Errorf("tiny kernel got %d threads, want the static fallback (32)", kr.Decision.Threads)
	}
	k := w.Kernels()[0].(*synthKernel)
	if len(k.chunkTeams) != 1 || k.chunkTeams[0] != 32 {
		t.Errorf("chunks = %v, want one 32-thread chunk", k.chunkTeams)
	}
}

func TestEmptyKernelIsNoop(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	f := newSynthFactory(0, 100, 0, 0)
	w := f(m)
	res := NewController(Combined{}).Run(m, w)
	if res.Kernels[0].Cycles != 0 {
		t.Errorf("empty kernel took %d cycles", res.Kernels[0].Cycles)
	}
}

func TestPropertyChunksPartitionIterations(t *testing.T) {
	// Whatever the policy does, the union of executed chunk ranges
	// must be exactly [0, N): every iteration once, in order.
	f := func(itersRaw uint16, csRaw uint8) bool {
		iters := int(itersRaw%300) + 8
		cs := uint64(csRaw % 50)
		m := machine.MustNew(machine.DefaultConfig())
		k := &synthKernel{
			name: "synth", iters: iters, computeCycles: 400, csCycles: cs,
			base: m.Alloc(1 << 20),
		}
		w := &synthWorkload{name: "synth", kernels: []Kernel{k}}
		NewController(Combined{}).Run(m, w)
		return k.coveredExactly(iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestStableWindow(t *testing.T) {
	if stableWindow([]float64{0.1, 0.1}, 3, 0.05) {
		t.Error("short history reported stable")
	}
	if !stableWindow([]float64{0.5, 0.100, 0.101, 0.102}, 3, 0.05) {
		t.Error("tight window not stable")
	}
	if stableWindow([]float64{0.10, 0.20, 0.10}, 3, 0.05) {
		t.Error("wild window reported stable")
	}
	if !stableWindow([]float64{0, 0, 0}, 3, 0.05) {
		t.Error("all-zero window (no CS) must be stable")
	}
}

func TestCSRatio(t *testing.T) {
	if got := csRatio(100, 20); got != 0.25 {
		t.Errorf("csRatio(100,20) = %v, want 0.25 (20/80)", got)
	}
	if got := csRatio(100, 100); got != 1 {
		t.Errorf("csRatio all-CS = %v, want 1", got)
	}
	if got := csRatio(100, 0); got != 0 {
		t.Errorf("csRatio no-CS = %v, want 0", got)
	}
}

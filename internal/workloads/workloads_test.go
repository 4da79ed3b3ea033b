package workloads

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// small parameter sets keep unit tests fast; behaviour-shape tests
// that need the full defaults live in the experiments package.

func smallFactories() map[string]core.Factory {
	return map[string]core.Factory{
		"pagemine": func(m *machine.Machine) core.Workload {
			return NewPageMine(m, PageMineParams{Pages: 24, PageBytes: 1024, WorkPerCharInstr: 2, MergePerBinInstr: 6})
		},
		"isort": func(m *machine.Machine) core.Workload {
			return NewISort(m, ISortParams{N: 1024, Buckets: 16, Repeats: 12, WorkPerKeyInstr: 2, MergePerBucketInstr: 32})
		},
		"gsearch": func(m *machine.Machine) core.Workload {
			return NewGSearch(m, GSearchParams{Nodes: 400, Degree: 4, Batch: 40, EvalInstr: 400, EdgeInstr: 30})
		},
		"ep": func(m *machine.Machine) core.Workload {
			return NewEP(m, EPParams{N: 4096, Batch: 128, GenInstr: 24, MergeInstr: 150})
		},
		"ed": func(m *machine.Machine) core.Workload {
			return NewED(m, EDParams{N: 16 << 10, Block: 1024, MulAddInstr: 4})
		},
		"convert": func(m *machine.Machine) core.Workload {
			return NewConvert(m, ConvertParams{Width: 128, Height: 24, PixelInstr: 100})
		},
		"transpose": func(m *machine.Machine) core.Workload {
			return NewTranspose(m, TransposeParams{Rows: 32, Cols: 128, ElemInstr: 4})
		},
		"mtwister": func(m *machine.Machine) core.Workload {
			return NewMTwister(m, MTwisterParams{N: 4096, BlockLen: 256, GenInstr: 260, BoxMullerInstr: 40})
		},
		"bt": func(m *machine.Machine) core.Workload {
			return NewBT(m, BTParams{Dim: 6, Steps: 10, CellInstr: 120})
		},
		"mg": func(m *machine.Machine) core.Workload {
			return NewMG(m, MGParams{Dim: 8, Cycles: 8, PointInstr: 24})
		},
		"bscholes": func(m *machine.Machine) core.Workload {
			return NewBScholes(m, BScholesParams{Options: 256, Batch: 64, Passes: 8, OptionInstr: 200, Rate: 0.02, Vol: 0.30})
		},
		"sconv": func(m *machine.Machine) core.Workload {
			return NewSConv(m, SConvParams{Size: 32, Radius: 4, Frames: 6, TapInstr: 2})
		},
	}
}

func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, info := range All() {
		if names[info.Name] {
			t.Errorf("duplicate registration %q", info.Name)
		}
		names[info.Name] = true
		if info.Factory == nil {
			t.Errorf("%s has no factory", info.Name)
		}
	}
	if len(names) != 12 {
		t.Errorf("registry has %d workloads, want the paper's 12", len(names))
	}
	for _, c := range []Class{CSLimited, BWLimited, Scalable} {
		if got := len(ByClass(c)); got != 4 {
			t.Errorf("class %s has %d workloads, want 4", c, got)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := ByName("pagemine"); !ok {
		t.Error("pagemine not found")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("nonexistent workload found")
	}
}

func TestClassString(t *testing.T) {
	if CSLimited.String() != "CS-limited" || BWLimited.String() != "BW-limited" || Scalable.String() != "Scalable" {
		t.Error("class names changed")
	}
	if Class(99).String() == "" {
		t.Error("unknown class renders empty")
	}
}

// TestAllWorkloadsVerifyUnderEveryTeamSize runs every workload at
// several static team sizes and checks the computed results against
// each workload's serial reference — the key correctness property:
// the thread count must never change the answer.
func TestAllWorkloadsVerifyUnderEveryTeamSize(t *testing.T) {
	for name, fac := range smallFactories() {
		for _, threads := range []int{1, 3, 8} {
			m := machine.MustNew(machine.DefaultConfig())
			w := fac(m)
			core.NewController(core.Static{N: threads}).Run(m, w)
			if err := w.(Verifier).Verify(); err != nil {
				t.Errorf("%s at %d threads: %v", name, threads, err)
			}
		}
	}
}

// TestAllWorkloadsVerifyUnderFDT runs every workload under the
// combined policy (training chunks + execution chunk) and verifies.
func TestAllWorkloadsVerifyUnderFDT(t *testing.T) {
	for name, fac := range smallFactories() {
		m := machine.MustNew(machine.DefaultConfig())
		w := fac(m)
		core.NewController(core.Combined{}).Run(m, w)
		if err := w.(Verifier).Verify(); err != nil {
			t.Errorf("%s under SAT+BAT: %v", name, err)
		}
	}
}

// TestDeterminism re-runs each workload and demands identical cycle
// counts: the simulation must not depend on host scheduling or map
// iteration order.
func TestDeterminism(t *testing.T) {
	for name, fac := range smallFactories() {
		run := func() uint64 {
			m := machine.MustNew(machine.DefaultConfig())
			return core.NewController(core.Static{N: 5}).Run(m, fac(m)).TotalCycles
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: runs took %d and %d cycles", name, a, b)
		}
	}
}

// TestChunkSplitInvariance: executing a kernel's iterations as many
// small chunks must compute the same results as one big chunk (the
// property FDT's train-then-execute split relies on).
func TestChunkSplitInvariance(t *testing.T) {
	for name, fac := range smallFactories() {
		runSplit := func(split bool) core.Workload {
			m := machine.MustNew(machine.DefaultConfig())
			w := fac(m)
			if split {
				// Controller with static policy runs one chunk; emulate
				// FDT's split with a tiny training fraction via SAT.
				core.NewController(core.SAT{}).Run(m, w)
			} else {
				core.NewController(core.Static{N: 4}).Run(m, w)
			}
			return w
		}
		for _, split := range []bool{false, true} {
			w := runSplit(split)
			if err := w.(Verifier).Verify(); err != nil {
				t.Errorf("%s (split=%v): %v", name, split, err)
			}
		}
		_ = name
	}
}

func TestPageMineHistogramTotals(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	p := PageMineParams{Pages: 10, PageBytes: 512, WorkPerCharInstr: 2, MergePerBinInstr: 6}
	w := NewPageMine(m, p)
	core.NewController(core.Static{N: 4}).Run(m, w)
	var total uint64
	for _, v := range w.Histogram() {
		total += v
	}
	if want := uint64(p.Pages * p.PageBytes); total != want {
		t.Errorf("histogram totals %d chars, want %d", total, want)
	}
}

func TestISortFinishProducesSortedRanks(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	w := NewISort(m, ISortParams{N: 512, Buckets: 16, Repeats: 4, WorkPerKeyInstr: 2, MergePerBucketInstr: 32})
	core.NewController(core.Static{N: 4}).Run(m, w)
	w.Finish()
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEDDistanceMatchesSerial(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	w := NewED(m, EDParams{N: 4096, Block: 512, MulAddInstr: 4})
	core.NewController(core.Static{N: 8}).Run(m, w)
	if w.Distance() <= 0 {
		t.Error("distance not positive")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMTwisterTwoKernels(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	w := NewMTwister(m, MTwisterParams{N: 2048, BlockLen: 256, GenInstr: 260, BoxMullerInstr: 40})
	ks := w.Kernels()
	if len(ks) != 2 {
		t.Fatalf("MTwister has %d kernels, want 2", len(ks))
	}
	if ks[0].Name() == ks[1].Name() {
		t.Error("kernel names not distinct")
	}
}

func TestLCGJumpMatchesSequential(t *testing.T) {
	seq := lcg{s: 0x2545f49}
	for i := 0; i < 1000; i++ {
		seq.next()
	}
	jumped := lcgAt(0x2545f49, 1000)
	if seq.s != jumped.s {
		t.Errorf("lcgAt(1000) = %#x, sequential = %#x", jumped.s, seq.s)
	}
	if got := lcgAt(0x2545f49, 0); got.s != 0x2545f49 {
		t.Errorf("lcgAt(0) moved the seed")
	}
}

func TestSlabRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ slabs, total int }{{32, 1000}, {8, 7}, {16, 16}, {4, 0}} {
		covered := 0
		prevHi := 0
		for s := 0; s < tc.slabs; s++ {
			lo, hi := slabRange(s, tc.slabs, tc.total)
			if lo != prevHi {
				t.Errorf("slabs %d/%d: slab %d starts at %d, want %d", tc.slabs, tc.total, s, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.total {
			t.Errorf("slabs %d cover %d of %d items", tc.slabs, covered, tc.total)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Error("zero seed not remapped")
	}
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.float64(); f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %v", f)
		}
		if n := r.intn(10); n < 0 || n >= 10 {
			t.Fatalf("intn out of range: %d", n)
		}
	}
}

func TestMT19937KnownValues(t *testing.T) {
	// Reference values for seed 5489 (the canonical MT19937 seed):
	// first outputs are well-known.
	g := newMT19937(5489)
	want := []uint32{3499211612, 581869302, 3890346734, 3586334585, 545404204}
	for i, w := range want {
		if got := g.next(); got != w {
			t.Fatalf("MT19937 output %d = %d, want %d", i, got, w)
		}
	}
}

func TestBoxMullerMoments(t *testing.T) {
	g := newMT19937(12345)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i += 2 {
		z0, z1 := boxMuller(g.next(), g.next())
		sum += z0 + z1
		sumSq += z0*z0 + z1*z1
	}
	mean := sum / n
	variance := sumSq / n
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormCDFProperties(t *testing.T) {
	if got := normCDF(0); got < 0.4999 || got > 0.5001 {
		t.Errorf("normCDF(0) = %v, want 0.5", got)
	}
	for _, x := range []float64{-3, -1, -0.1, 0.5, 2, 4} {
		if s := normCDF(x) + normCDF(-x); s < 0.9999 || s > 1.0001 {
			t.Errorf("normCDF(%v)+normCDF(-%v) = %v, want 1", x, x, s)
		}
	}
	if normCDF(5) < 0.999 || normCDF(-5) > 0.001 {
		t.Error("tails wrong")
	}
}

// TestPhaseShiftRegisteredAsExtra: the synthetic phased workload must
// resolve by name without joining the paper's Table-2 registry.
func TestPhaseShiftRegisteredAsExtra(t *testing.T) {
	if _, ok := ByName("phaseshift"); !ok {
		t.Fatal("phaseshift not resolvable by name")
	}
	for _, i := range All() {
		if i.Name == "phaseshift" {
			t.Error("phaseshift leaked into the Table-2 registry")
		}
	}
	found := false
	for _, i := range Extras() {
		if i.Name == "phaseshift" {
			found = true
		}
	}
	if !found {
		t.Error("phaseshift missing from Extras()")
	}
}

// TestPhaseShiftVerifies: the phased workload computes the right
// reduction at every team size and under the adaptive pipeline, whose
// interval-chunked execution and mid-kernel re-training must not
// change the answer. The adaptive run's spans are long enough for the
// monitor's 64-iteration cadence to see a phase change and retrain.
func TestPhaseShiftVerifies(t *testing.T) {
	small := DefaultSyntheticParams("phaseshift")
	small.Spans = []Span{{Iters: 40}, {Iters: 40, Merge: true}, {Iters: 40, Stream: true}}
	small.Iters, small.Elems, small.MergeInstr = 120, 256, 60
	for _, threads := range []int{1, 3, 8} {
		m := machine.MustNew(machine.DefaultConfig())
		w := NewSynthetic(m, small)
		core.NewController(core.Static{N: threads}).Run(m, w)
		if err := w.Verify(); err != nil {
			t.Errorf("at %d threads: %v", threads, err)
		}
	}
	long := small
	long.Spans = []Span{{Iters: 200}, {Iters: 200, Merge: true}, {Iters: 200, Stream: true}}
	long.Iters = 600
	m := machine.MustNew(machine.DefaultConfig())
	w := NewSynthetic(m, long)
	ctl := core.NewController(core.Combined{})
	ctl.Adaptive = true
	res := ctl.Run(m, w)
	if err := w.Verify(); err != nil {
		t.Errorf("under adaptive FDT: %v", err)
	}
	if r := res.Kernels[0].Retrains; r < 1 {
		t.Errorf("adaptive FDT retrained %d times, want >= 1 (the test must cross a phase change mid-kernel)", r)
	}
}

func TestIdx3WrapsOneStepOutside(t *testing.T) {
	// idx3's compare-and-add wrap must agree with the periodic modulo
	// over the coordinates its callers pass, [-1, d] on each axis. The
	// stencils' incremental forms must agree with it too: walking the
	// grid with next3 from coords3, and stepping to each neighbour
	// with axisSteps.
	for _, d := range []int{1, 2, 3, 8} {
		mod := func(v int) int { return (v%d + d) % d }
		for x := -1; x <= d; x++ {
			for y := -1; y <= d; y++ {
				for z := -1; z <= d; z++ {
					if got, want := idx3(x, y, z, d), (mod(x)*d+mod(y))*d+mod(z); got != want {
						t.Fatalf("idx3(%d, %d, %d, %d) = %d, want %d", x, y, z, d, got, want)
					}
				}
			}
		}
		x, y, z := coords3(0, d)
		for c := 0; c < d*d*d; c++ {
			if got := idx3(x, y, z, d); got != c {
				t.Fatalf("d %d: the walk reaches (%d, %d, %d) = %d at point %d", d, x, y, z, got, c)
			}
			if cx, cy, cz := coords3(c, d); cx != x || cy != y || cz != z {
				t.Fatalf("d %d: coords3(%d) = (%d, %d, %d), the walk has (%d, %d, %d)", d, c, cx, cy, cz, x, y, z)
			}
			xm, xp := axisSteps(x, d, d*d)
			ym, yp := axisSteps(y, d, d)
			zm, zp := axisSteps(z, d, 1)
			got := [6]int{c + xm, c + xp, c + ym, c + yp, c + zm, c + zp}
			want := [6]int{idx3(x-1, y, z, d), idx3(x+1, y, z, d), idx3(x, y-1, z, d),
				idx3(x, y+1, z, d), idx3(x, y, z-1, d), idx3(x, y, z+1, d)}
			if got != want {
				t.Fatalf("d %d: neighbours of (%d, %d, %d) = %v, want %v", d, x, y, z, got, want)
			}
			x, y, z = next3(x, y, z, d)
		}
	}
}

// TestStencilVerifySeesMovedValues: bt's and mg's updates conserve
// their fields' sums, so a checksum cannot see a value written to the
// wrong point. Verify compares every value, so swapping two values of
// a correct run must fail it.
func TestStencilVerifySeesMovedValues(t *testing.T) {
	for _, name := range []string{"bt", "mg"} {
		m := machine.MustNew(machine.DefaultConfig())
		w := smallFactories()[name](m)
		core.NewController(core.Static{N: 4}).Run(m, w)
		v := w.(Verifier)
		if err := v.Verify(); err != nil {
			t.Fatalf("%s: clean run fails verification: %v", name, err)
		}
		var f []float64
		switch w := w.(type) {
		case *BT:
			f = w.cur
		case *MG:
			f = w.fine
		}
		f[0], f[len(f)-1] = f[len(f)-1], f[0]
		if err := v.Verify(); err == nil {
			t.Errorf("%s: swapping two values passed verification", name)
		}
	}
}

// TestExtrasHeapLayout pins where each extra's simulated heap ends
// after construction: the next Alloc on a fresh default machine. Solo
// runs cannot see a region that is allocated but never touched, yet it
// moves every later allocation, so a co-runner sharing the machine
// would see its addresses shift. The layout is the vector, the stream
// region (only when the kernel streams), the lock line and the
// accumulator line; busburst has no accumulator line. The table also
// pins the extras' listing order.
func TestExtrasHeapLayout(t *testing.T) {
	want := []struct {
		name string
		end  uint64
	}{
		// 1 MiB base + 16 KiB vector + 600 16 KiB stream blocks + lock.
		{"busburst", 0xa64040},
		// base + vector + lock + accumulator.
		{"gauntlet/oscillate", 0x104080},
		{"gauntlet/csdep", 0x104080},
		// base + vector + 256 stream blocks + lock + accumulator.
		{"gauntlet/busstorm", 0x504080},
		{"gauntlet/eqclash", 0x504080},
		// base + vector + 400 stream blocks + lock + accumulator.
		{"phaseshift", 0x744080},
	}
	extras := Extras()
	if len(extras) != len(want) {
		t.Fatalf("%d extras, want %d", len(extras), len(want))
	}
	for i, info := range extras {
		m := machine.MustNew(machine.DefaultConfig())
		info.Factory(m)
		if info.Name != want[i].name {
			t.Errorf("extra %d is %q, want %q", i, info.Name, want[i].name)
		}
		if got := m.Alloc(0); got != want[i].end {
			t.Errorf("%s: heap ends at %#x after construction, want %#x", info.Name, got, want[i].end)
		}
	}
}

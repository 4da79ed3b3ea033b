package workloads

import (
	"fmt"
	"math"
	"slices"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// Synthetic is a one-kernel stress case with no paper counterpart,
// registered as an extra outside Table 2. The paper's controller
// trains once per kernel; each synthetic kernel changes its behaviour
// inside one kernel, where per-kernel retraining cannot help and only
// the controller can react. It is built from three kinds of iteration,
// each splitting Elems elements across the team and ending at a
// barrier:
//
//	compute — data-parallel arithmetic over a cache-resident vector
//	stream  — the same reduction, but loading a fresh block from
//	          memory every iteration (ED's bus demand)
//	merge   — either of the above, then every thread folds its partial
//	          into a shared accumulator under a lock (Fig 1's shape)
//
// Spans list runs of these kinds and repeat in order until Iters, so
// each registered synthetic is one row of the table below. Every
// iteration reduces the vector's sum of squares (streaming iterations
// load separate memory but reduce the shared vector), so Verify checks
// a real result, and all randomness is a seeded xorshift at
// construction: identical runs produce identical simulations.
type Synthetic struct {
	p SyntheticParams

	vec        []float64
	vecAddr    uint64
	streamAddr uint64
	lock       *thread.Lock
	accAddr    uint64
	plan       []step

	sum float64
}

// Span is a run of Iters iterations of one kind.
type Span struct {
	Iters int
	// Stream loads a fresh block from memory instead of the vector.
	Stream bool
	// Merge folds each thread's partial into the accumulator under the
	// lock after the iteration's arithmetic.
	Merge bool
}

// SyntheticParams sizes a Synthetic.
type SyntheticParams struct {
	// Name is the workload's registry key.
	Name string
	// Spans repeat in order until Iters, the kernel length.
	Spans []Span
	Iters int
	// Elems is the elements processed per iteration.
	Elems int
	// ComputeInstr and StreamInstr are the per-element arithmetic of
	// vector and streaming iterations; MergeInstr is one merge's
	// critical-section work.
	ComputeInstr, StreamInstr, MergeInstr uint64
	// TeamMerge multiplies the merge by the team size: the merge walks
	// a structure that grows with the team, so single-threaded training
	// sees the cheapest possible merge.
	TeamMerge bool
	// AccLine allocates the accumulator line even when no span merges.
	// It only moves later allocations, which a co-runner sees.
	AccLine bool
	// Seed seeds the input generator.
	Seed uint64
}

// step is one iteration of the plan: the stream block it loads (-1 for
// the vector) and whether it merges.
type step struct {
	block int
	merge bool
}

// NewSynthetic builds the workload on m. The heap holds the vector,
// the stream region (only when a span streams), the lock line and the
// accumulator line (only when a span merges or AccLine is set).
func NewSynthetic(m *machine.Machine, p SyntheticParams) *Synthetic {
	mustMachine(m, p.Name)
	if !slices.ContainsFunc(p.Spans, func(s Span) bool { return s.Iters > 0 }) {
		panic(fmt.Sprintf("workloads: %s has no non-empty span", p.Name))
	}
	w := &Synthetic{p: p, plan: make([]step, p.Iters)}
	blocks, acc := 0, p.AccLine
	si, left := 0, p.Spans[0].Iters
	for it := range w.plan {
		for left <= 0 {
			si = (si + 1) % len(p.Spans)
			left = p.Spans[si].Iters
		}
		left--
		s := p.Spans[si]
		w.plan[it] = step{block: -1, merge: s.Merge}
		if s.Stream {
			w.plan[it].block = blocks
			blocks++
		}
		acc = acc || s.Merge
	}
	w.vec = make([]float64, p.Elems)
	r := newRNG(p.Seed)
	for i := range w.vec {
		w.vec[i] = r.float64()*2 - 1
	}
	w.vecAddr = m.Alloc(8 * p.Elems)
	if blocks > 0 {
		w.streamAddr = m.Alloc(8 * p.Elems * blocks)
	}
	w.lock = thread.NewLock(m)
	if acc {
		w.accAddr = m.Alloc(64)
	}
	return w
}

// Name implements core.Workload.
func (w *Synthetic) Name() string { return w.p.Name }

// Kernels implements core.Workload: one kernel, so any behaviour
// change happens mid-kernel.
func (w *Synthetic) Kernels() []core.Kernel { return []core.Kernel{w} }

// Setup implements core.SetupWorkload: warm the shared vector, like
// the serial initialization every real benchmark has.
func (w *Synthetic) Setup(c *thread.Ctx) {
	c.LoadRange(w.vecAddr, 8*w.p.Elems)
}

// Iterations implements core.Kernel.
func (w *Synthetic) Iterations() int { return w.p.Iters }

// RunChunk implements core.Kernel: iterations [lo, hi) on a team of
// n, each ending at a barrier.
func (w *Synthetic) RunChunk(master *thread.Ctx, n, lo, hi int) {
	bar := &thread.Barrier{}
	master.Fork(n, func(tc *thread.Ctx) {
		merge := w.p.MergeInstr
		if w.p.TeamMerge {
			merge *= uint64(tc.Size)
		}
		var partial float64
		for _, s := range w.plan[lo:hi] {
			myLo, myHi := tc.Range(0, w.p.Elems)
			share := uint64(myHi - myLo)
			if share > 0 {
				base, instr := w.vecAddr, w.p.ComputeInstr
				if s.block >= 0 {
					base, instr = w.streamAddr+uint64(8*s.block*w.p.Elems), w.p.StreamInstr
				}
				tc.LoadRange(base+uint64(8*myLo), int(8*share))
				tc.Exec(share * instr)
				for i := myLo; i < myHi; i++ {
					partial += w.vec[i] * w.vec[i]
				}
			}
			if s.merge {
				tc.Critical(w.lock, func() {
					tc.Load(w.accAddr)
					tc.Exec(merge)
					tc.Store(w.accAddr)
					w.sum += partial
					partial = 0
				})
			}
			tc.Barrier(bar)
		}
		// Fold the leftover partial of non-merging iterations once per
		// chunk (ED's negligible chunk-end reduction).
		if partial != 0 {
			tc.Critical(w.lock, func() {
				tc.Exec(4)
				w.sum += partial
			})
		}
	})
}

// Verify recomputes the reduction serially: Iters times the vector's
// sum of squares, within floating-point reordering tolerance.
func (w *Synthetic) Verify() error {
	var per float64
	for _, v := range w.vec {
		per += v * v
	}
	want := per * float64(w.p.Iters)
	if diff := math.Abs(want - w.sum); diff > 1e-6*math.Abs(want) {
		return fmt.Errorf("%s: sum %v, want %v", w.p.Name, w.sum, want)
	}
	return nil
}

// synthetics registers every synthetic, in listing order. Class is the
// binding limiter of the kernel's worst span; breaks, set for the
// gauntlet, names the model assumption the member violates.
var synthetics = []struct {
	class                  Class
	problem, input, breaks string
	p                      SyntheticParams
}{
	// busburst is the interference probe for the adaptive Monitor:
	// quiet compute, then a burst that saturates the bus. Solo it is
	// unremarkable. As a co-runner its onset is delayed until the
	// victim tenant has trained, so the flood arrives mid-execution;
	// the victim's own behaviour never changes, but its monitor reads
	// the socket-wide bus counter, sees per-iteration bus occupancy
	// leave the tolerance band, and must classify the onset as "bus"
	// drift and retrain ("corun-adaptive-drift-retrain").
	{BWLimited, "Synthetic delayed-onset bandwidth hog (co-runner probe)", "600 quiet + 600 burst iters x 2048 elems", "",
		SyntheticParams{Name: "busburst", Spans: []Span{{Iters: 600}, {Iters: 600, Stream: true}}, Iters: 1200,
			Elems: 2048, ComputeInstr: 6, StreamInstr: 2, Seed: 0xb0b5}},

	// The gauntlet scores controllers on robustness: the paper's
	// policies are correct when Eq. 3/5/7's assumptions hold, and each
	// member is a world where one does not.
	//
	// oscillate's sub-phases alternate faster than the monitor
	// interval, so every execution interval has a different phase mix:
	// the drift test fires continuously and each retrain trains on one
	// sub-phase and decides for the wrong mixture.
	{CSLimited, "Adversarial model-assumption breaker (oscillate)", "960 iters x 2048 elems, 24-iter sub-phases",
		"phases flip faster than the monitor interval; retraining thrashes on interval composition",
		SyntheticParams{Name: "gauntlet/oscillate", Spans: []Span{{Iters: 24}, {Iters: 24, Merge: true}}, Iters: 960,
			Elems: 2048, ComputeInstr: 4, MergeInstr: 100, Seed: 0xad7e}},
	// csdep is stationary in time, so the monitor never sees drift,
	// but Eq. 3's premise (T_CS measured at one thread is the T_CS of
	// every allocation) is false: single-threaded training wildly
	// underestimates contention and SAT over-allocates.
	{CSLimited, "Adversarial model-assumption breaker (csdep)", "768 iters x 2048 elems, merge cost x team size",
		"critical-section cost scales with team size; Eq. 3's stationary-T_CS premise",
		SyntheticParams{Name: "gauntlet/csdep", Spans: []Span{{Iters: 768, Merge: true}}, Iters: 768,
			Elems: 2048, ComputeInstr: 4, MergeInstr: 8, TeamMerge: true, Seed: 0xad7e}},
	// busstorm rides busburst's quiet/stream pattern in short periods.
	// Training lands in a quiet stretch, BAT excludes bandwidth, the
	// decision is blind to the storms, and every burst edge drifts.
	{BWLimited, "Adversarial model-assumption breaker (busstorm)", "1024 iters x 2048 elems, 96 quiet + 32 burst",
		"bus traffic arrives in periodic bursts; Eq. 5's steady bus-utilization premise",
		SyntheticParams{Name: "gauntlet/busstorm", Spans: []Span{{Iters: 96}, {Iters: 32, Stream: true}}, Iters: 1024,
			Elems: 2048, ComputeInstr: 4, StreamInstr: 2, AccLine: true, Seed: 0xad7e}},
	// eqclash's bandwidth-saturated prefix covers the whole training
	// window, then the kernel turns embarrassingly parallel: Eq. 5
	// reads "2 threads", Eq. 3 "no critical sections, take all 32",
	// and the training window decides which wins.
	{BWLimited, "Adversarial model-assumption breaker (eqclash)", "1024 iters x 2048 elems, 256-iter stream prefix",
		"bandwidth-saturated prefix covers the training window; Eq. 3 and Eq. 5 disagree maximally",
		SyntheticParams{Name: "gauntlet/eqclash", Spans: []Span{{Iters: 256, Stream: true}, {Iters: 768}}, Iters: 1024,
			Elems: 2048, ComputeInstr: 4, StreamInstr: 2, AccLine: true, Seed: 0xad7e}},

	// phaseshift goes scalable, then CS-limited, then BW-limited. The
	// train-once controller samples the scalable phase and locks 32
	// threads for the whole kernel, overpaying badly in the CS phase
	// (Section 9's fragility). The adaptive Monitor sees the
	// critical-section cycles appear at the first boundary and the bus
	// occupancy at the second, retrains at each, and lands near the
	// per-phase optima. With ~8K instructions of parallel work per
	// iteration, a 200-instruction merge puts P_CS near 6-7, like
	// PageMine.
	{CSLimited, "Synthetic 3-phase kernel", "3 x 400 iters x 2048 elems", "",
		SyntheticParams{Name: "phaseshift", Spans: []Span{{Iters: 400}, {Iters: 400, Merge: true}, {Iters: 400, Stream: true}}, Iters: 1200,
			Elems: 2048, ComputeInstr: 4, StreamInstr: 4, MergeInstr: 200, Seed: 0x5f17}},
}

// DefaultSyntheticParams returns the registered configuration of the
// synthetic named name; it panics on any other name.
func DefaultSyntheticParams(name string) SyntheticParams {
	for _, s := range synthetics {
		if s.p.Name == name {
			p := s.p
			p.Spans = slices.Clone(p.Spans)
			return p
		}
	}
	panic(fmt.Sprintf("workloads: no synthetic %q", name))
}

// GauntletMember describes one gauntlet entry for listings and the
// robustness experiment.
type GauntletMember struct {
	// Name is the registry key ("gauntlet/oscillate", ...).
	Name string
	// Breaks names the model assumption the member violates.
	Breaks string
}

// GauntletMembers lists the gauntlet in registration order.
func GauntletMembers() []GauntletMember {
	var out []GauntletMember
	for _, s := range synthetics {
		if s.breaks != "" {
			out = append(out, GauntletMember{s.p.Name, s.breaks})
		}
	}
	return out
}

func init() {
	for _, s := range synthetics {
		p := s.p
		registerExtra(Info{Name: p.Name, Class: s.class, Problem: s.problem, Input: s.input,
			Factory: func(m *machine.Machine) core.Workload { return NewSynthetic(m, p) }})
	}
}

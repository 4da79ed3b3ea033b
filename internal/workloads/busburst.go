package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// BusBurst is a synthetic co-runner with delayed bandwidth onset (no
// paper counterpart; registered as an extra, outside Table 2). It is
// one kernel in two phases:
//
//	quiet [0, Q):    compute-only arithmetic over a cache-resident
//	                 vector — near-zero bus traffic
//	burst [Q, Q+B):  streams a fresh block from memory every
//	                 iteration — ED-like bus saturation
//
// Run solo it is unremarkable. Run as a co-runner it is the
// interference probe for the adaptive Monitor: a victim tenant trains
// while BusBurst is quiet, then BusBurst's burst phase floods the
// shared bus mid-execution. The victim's own behaviour never changes —
// but its monitor reads the socket-wide bus counter, sees per-iteration
// bus occupancy leave the tolerance band, and must classify the
// co-runner's onset as "bus" drift and retrain (the
// "corun-adaptive-drift-retrain" shape assertion).
type BusBurst struct {
	m *machine.Machine
	p BusBurstParams

	vec        []float64
	vecAddr    uint64
	streamAddr uint64
	lock       *thread.Lock

	sum float64
}

// BusBurstParams sizes BusBurst.
type BusBurstParams struct {
	// QuietIters and BurstIters are the two phase lengths.
	QuietIters, BurstIters int
	// Elems is the elements processed per iteration.
	Elems int
	// ComputeInstr is the per-element arithmetic of the quiet phase.
	ComputeInstr uint64
	// StreamInstr is the per-element arithmetic of the burst phase
	// (kept low so the phase is bandwidth- not compute-bound).
	StreamInstr uint64
}

// DefaultBusBurstParams returns the interference experiments'
// configuration.
func DefaultBusBurstParams() BusBurstParams {
	return BusBurstParams{
		QuietIters:   600,
		BurstIters:   600,
		Elems:        2048,
		ComputeInstr: 6,
		StreamInstr:  2,
	}
}

// NewBusBurst builds the workload on m.
func NewBusBurst(m *machine.Machine, p BusBurstParams) *BusBurst {
	mustMachine(m, "busburst")
	w := &BusBurst{m: m, p: p}
	w.vec = make([]float64, p.Elems)
	r := newRNG(0xb0b5)
	for i := range w.vec {
		w.vec[i] = r.float64()*2 - 1
	}
	w.vecAddr = m.Alloc(8 * p.Elems)
	w.streamAddr = m.Alloc(8 * p.Elems * p.BurstIters)
	w.lock = thread.NewLock(m)
	return w
}

// Name implements core.Workload.
func (w *BusBurst) Name() string { return "busburst" }

// Kernels implements core.Workload: one kernel, so the onset happens
// mid-kernel where only the Monitor (not per-kernel retraining) can
// react.
func (w *BusBurst) Kernels() []core.Kernel { return []core.Kernel{w} }

// Setup implements core.SetupWorkload.
func (w *BusBurst) Setup(c *thread.Ctx) {
	c.LoadRange(w.vecAddr, 8*w.p.Elems)
}

// Iterations implements core.Kernel.
func (w *BusBurst) Iterations() int { return w.p.QuietIters + w.p.BurstIters }

// RunChunk implements core.Kernel: iterations [lo, hi) on a team of
// n, each ending at a barrier.
func (w *BusBurst) RunChunk(master *thread.Ctx, n, lo, hi int) {
	bar := &thread.Barrier{}
	master.Fork(n, func(tc *thread.Ctx) {
		var partial float64
		for it := lo; it < hi; it++ {
			myLo, myHi := tc.Range(0, w.p.Elems)
			share := uint64(myHi - myLo)
			if it < w.p.QuietIters {
				// Quiet: hot-vector arithmetic, no off-chip traffic.
				if share > 0 {
					tc.LoadRange(w.vecAddr+uint64(8*myLo), int(8*share))
					tc.Exec(share * w.p.ComputeInstr)
					for i := myLo; i < myHi; i++ {
						partial += w.vec[i] * w.vec[i]
					}
				}
			} else {
				// Burst: stream a fresh block every iteration.
				blk := it - w.p.QuietIters
				base := w.streamAddr + uint64(8*blk*w.p.Elems)
				if share > 0 {
					tc.LoadRange(base+uint64(8*myLo), int(8*share))
					tc.Exec(share * w.p.StreamInstr)
					for i := myLo; i < myHi; i++ {
						partial += w.vec[i] * w.vec[i]
					}
				}
			}
			tc.Barrier(bar)
		}
		if partial != 0 {
			tc.Critical(w.lock, func() {
				tc.Exec(4)
				w.sum += partial
			})
		}
	})
}

// Verify recomputes the reduction serially: every iteration of both
// phases accumulates the shared vector's sum of squares.
func (w *BusBurst) Verify() error {
	var per float64
	for _, v := range w.vec {
		per += v * v
	}
	want := per * float64(w.p.QuietIters+w.p.BurstIters)
	if diff := math.Abs(want - w.sum); diff > 1e-6*math.Abs(want) {
		return fmt.Errorf("busburst: sum %v, want %v", w.sum, want)
	}
	return nil
}

func init() {
	registerExtra(Info{
		Name:    "busburst",
		Class:   BWLimited, // the binding limiter of its second phase
		Problem: "Synthetic delayed-onset bandwidth hog (co-runner probe)",
		Input:   "600 quiet + 600 burst iters x 2048 elems",
		Factory: func(m *machine.Machine) core.Workload {
			return NewBusBurst(m, DefaultBusBurstParams())
		},
	})
}

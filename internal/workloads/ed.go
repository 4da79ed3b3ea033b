package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// ED computes the Euclidean distance of a point from the origin in an
// N-dimensional space (Fig 3): a data-parallel reduction that streams
// the whole coordinate vector from memory with two arithmetic
// operations per element. Per-thread bus demand is high and there is
// no data sharing, so it is the paper's canonical bandwidth-limited
// kernel (Figs 4 and 12a: time flattens at ~8 threads where bus
// utilization reaches 100%).
//
// Tuning target: single-thread bus utilization ~14% (paper: 14.3%,
// "a miss every 225 cycles"), so BAT predicts P_BW ~ 7-8.
type ED struct {
	m *machine.Machine
	p EDParams

	vec     []float64 // shared read-only input
	vecAddr uint64
	lock    *thread.Lock

	sumSquares float64
}

// EDParams sizes ED.
type EDParams struct {
	// N is the dimension count (paper: 100M; scaled 512K = 4MB of
	// coordinates, streamed once).
	N int
	// Block is the elements per kernel iteration.
	Block int
	// MulAddInstr is the per-element arithmetic (multiply+add).
	MulAddInstr uint64
}

// DefaultEDParams returns the scaled Table-2 input.
func DefaultEDParams() EDParams {
	return EDParams{N: 512 << 10, Block: 2048, MulAddInstr: 4}
}

// NewED builds the workload with a deterministic coordinate vector.
func NewED(m *machine.Machine, p EDParams) *ED {
	mustMachine(m, "ed")
	w := &ED{m: m, p: p}
	w.vec = readOnlyInput(p, func() []float64 {
		vec := make([]float64, p.N)
		r := newRNG(0xed)
		for i := range vec {
			vec[i] = r.float64()*2 - 1
		}
		return vec
	})
	w.vecAddr = m.Alloc(8 * p.N)
	w.lock = thread.NewLock(m)
	return w
}

// Name implements core.Workload.
func (w *ED) Name() string { return "ed" }

// Kernels implements core.Workload.
func (w *ED) Kernels() []core.Kernel { return []core.Kernel{w} }

// Iterations implements core.Kernel: one iteration per element block.
func (w *ED) Iterations() int {
	return (w.p.N + w.p.Block - 1) / w.p.Block
}

// RunChunk implements core.Kernel: blocks [lo, hi) split across the
// team; each thread accumulates partial sums locally and folds them
// into the shared sum once at the end of the chunk (the negligible
// synchronization the paper notes for data-parallel kernels).
func (w *ED) RunChunk(master *thread.Ctx, n, lo, hi int) {
	master.Fork(n, func(tc *thread.Ctx) {
		var partial float64
		for it := lo; it < hi; it++ {
			blkLo := it * w.p.Block
			blkHi := blkLo + w.p.Block
			if blkHi > w.p.N {
				blkHi = w.p.N
			}
			myLo, myHi := tc.Range(blkLo, blkHi)
			if myHi <= myLo {
				continue
			}
			tc.LoadRange(w.vecAddr+uint64(8*myLo), 8*(myHi-myLo))
			tc.Exec(uint64(myHi-myLo) * w.p.MulAddInstr)
			for i := myLo; i < myHi; i++ {
				partial += w.vec[i] * w.vec[i]
			}
		}
		tc.Critical(w.lock, func() {
			tc.Exec(8)
			w.sumSquares += partial
		})
	})
}

// Distance returns sqrt of the accumulated sum of squares.
func (w *ED) Distance() float64 { return math.Sqrt(w.sumSquares) }

// Verify recomputes the distance serially; floating-point reduction
// order differs across team sizes, so comparison uses a relative
// tolerance.
func (w *ED) Verify() error {
	var want float64
	for _, v := range w.vec {
		want += v * v
	}
	if diff := math.Abs(want - w.sumSquares); diff > 1e-6*math.Abs(want) {
		return fmt.Errorf("ed: sum of squares %v, want %v", w.sumSquares, want)
	}
	return nil
}

func init() {
	register(Info{
		Name:    "ed",
		Class:   BWLimited,
		Problem: "Euclidean distance",
		Input:   "n = 512K",
		Factory: func(m *machine.Machine) core.Workload {
			return NewED(m, DefaultEDParams())
		},
	})
}

package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// Transpose re-implements the CUDA-SDK-derived 2D matrix transpose:
// each thread operates on a different column block of the input,
// reading with a large stride (every access a fresh line) and writing
// the output rows sequentially. Both matrices stream from memory
// exactly once, so per-thread bus demand is high (Section 5.3: bus
// utilization 12.2% with one thread, BAT predicts 8, Fig 12c).
type Transpose struct {
	m *machine.Machine
	p TransposeParams

	in      []float64 // rows x cols, row-major; shared read-only input
	out     []float64 // cols x rows, row-major
	inAddr  uint64
	outAddr uint64
}

// TransposeParams sizes Transpose.
type TransposeParams struct {
	// Rows and Cols size the input matrix (paper: 512x8192; scaled
	// 256x512 = 1MB per matrix).
	Rows, Cols int
	// ElemInstr is the per-element copy work.
	ElemInstr uint64
}

// DefaultTransposeParams returns the scaled Table-2 input.
func DefaultTransposeParams() TransposeParams {
	return TransposeParams{Rows: 128, Cols: 2048, ElemInstr: 4}
}

// NewTranspose builds the workload with a deterministic matrix.
func NewTranspose(m *machine.Machine, p TransposeParams) *Transpose {
	mustMachine(m, "transpose")
	w := &Transpose{m: m, p: p}
	n := p.Rows * p.Cols
	w.in = readOnlyInput(p, func() []float64 {
		in := make([]float64, n)
		r := newRNG(0x7245)
		for i := range in {
			in[i] = r.float64()
		}
		return in
	})
	w.out = make([]float64, n)
	w.inAddr = m.Alloc(8 * n)
	w.outAddr = m.Alloc(8 * n)
	return w
}

// Name implements core.Workload.
func (w *Transpose) Name() string { return "transpose" }

// Kernels implements core.Workload.
func (w *Transpose) Kernels() []core.Kernel { return []core.Kernel{w} }

// groupCols is the column-group width: one cache line of float64s.
// Grouping makes every kernel iteration homogeneous — each group
// fetches its input lines cold exactly once — which is what the FDT
// training loop's stability criterion expects of well-formed
// iterations.
const groupCols = 8

// Iterations implements core.Kernel: one iteration per group of
// groupCols input columns.
func (w *Transpose) Iterations() int {
	return (w.p.Cols + groupCols - 1) / groupCols
}

// RunChunk implements core.Kernel: column groups [lo, hi) split
// across the team. Within a group the thread walks each column j over
// every row i, loading in[i][j] (strided — a fresh line per row for
// the group's first column, line hits for the rest) and storing
// out[j][i] (sequential, write-buffered).
func (w *Transpose) RunChunk(master *thread.Ctx, n, lo, hi int) {
	master.Fork(n, func(tc *thread.Ctx) {
		myLo, myHi := tc.Range(lo, hi)
		for g := myLo; g < myHi; g++ {
			jHi := (g + 1) * groupCols
			if jHi > w.p.Cols {
				jHi = w.p.Cols
			}
			for j := g * groupCols; j < jHi; j++ {
				for i := 0; i < w.p.Rows; i++ {
					tc.Load(w.inAddr + uint64(8*(i*w.p.Cols+j)))
					w.out[j*w.p.Rows+i] = w.in[i*w.p.Cols+j]
				}
				tc.Exec(uint64(w.p.Rows) * w.p.ElemInstr)
				tc.StoreRange(w.outAddr+uint64(8*j*w.p.Rows), 8*w.p.Rows)
			}
		}
	})
}

// Verify checks out == in^T element-wise.
func (w *Transpose) Verify() error {
	for i := 0; i < w.p.Rows; i++ {
		for j := 0; j < w.p.Cols; j++ {
			if w.out[j*w.p.Rows+i] != w.in[i*w.p.Cols+j] {
				return fmt.Errorf("transpose: out[%d][%d] != in[%d][%d]", j, i, i, j)
			}
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "transpose",
		Class:   BWLimited,
		Problem: "2D matrix transpose",
		Input:   "128x2048",
		Factory: func(m *machine.Machine) core.Workload {
			return NewTranspose(m, DefaultTransposeParams())
		},
	})
}

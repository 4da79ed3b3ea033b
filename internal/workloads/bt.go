package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// BT re-implements the computational pattern of the NAS BT fluid
// dynamics benchmark: a dense 3D grid of 5-variable cells advanced by
// a neighbour-coupled Jacobi update each time step. The grid fits on
// chip and the per-cell arithmetic dominates, so the kernel is
// limited by neither synchronization nor bandwidth — it keeps scaling
// and FDT must leave it at 32 threads (Fig 14's "Scalable" group).
//
// Each time step's parallelized loop is sliced into btSlabs
// independent slabs; the slabs are the kernel's FDT iterations, so
// training peels a few slabs (fine-grained, as the paper's loop
// peeling does), not whole time steps.
type BT struct {
	m *machine.Machine
	p BTParams

	cur, next []float64 // dim^3 * 5, double-buffered
	curAddr   uint64
	nextAddr  uint64

	kernel *phasedKernel
}

const btSlabs = 32

// BTParams sizes BT.
type BTParams struct {
	// Dim is the grid edge.
	Dim int
	// Steps is the number of time steps.
	Steps int
	// CellInstr is the per-cell update work per step.
	CellInstr uint64
}

// DefaultBTParams returns the scaled Table-2 input.
func DefaultBTParams() BTParams {
	return BTParams{Dim: 10, Steps: 200, CellInstr: 120}
}

// slabRange block-distributes total items over slabs.
func slabRange(slab, slabs, total int) (lo, hi int) {
	per := total / slabs
	rem := total % slabs
	lo = slab*per + minInt(slab, rem)
	hi = lo + per
	if slab < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NewBT builds the workload with a deterministic initial field.
func NewBT(m *machine.Machine, p BTParams) *BT {
	mustMachine(m, "bt")
	w := &BT{m: m, p: p}
	n := p.Dim * p.Dim * p.Dim * 5
	w.cur = make([]float64, n)
	w.next = make([]float64, n)
	r := newRNG(0xb7)
	for i := range w.cur {
		w.cur[i] = r.float64()
	}
	w.curAddr = m.Alloc(8 * n)
	w.nextAddr = m.Alloc(8 * n)

	d := p.Dim
	cells := d * d * d
	w.kernel = &phasedKernel{
		name:  "bt",
		steps: p.Steps,
		phases: []phase{{
			slabs: btSlabs,
			run: func(tc *thread.Ctx, slab int) {
				lo, hi := slabRange(slab, btSlabs, cells)
				if hi <= lo {
					return
				}
				tc.LoadRange(w.curAddr+uint64(8*5*lo), 8*5*(hi-lo))
				tc.Exec(uint64(hi-lo) * w.p.CellInstr)
				w.updateCells(lo, hi)
				tc.StoreRange(w.nextAddr+uint64(8*5*lo), 8*5*(hi-lo))
			},
			after: func() {
				w.cur, w.next = w.next, w.cur
				w.curAddr, w.nextAddr = w.nextAddr, w.curAddr
			},
		}},
	}
	return w
}

// Name implements core.Workload.
func (w *BT) Name() string { return "bt" }

// Kernels implements core.Workload.
func (w *BT) Kernels() []core.Kernel { return []core.Kernel{w.kernel} }

// updateCells updates cells [lo, hi) in index order.
func (w *BT) updateCells(lo, hi int) {
	d := w.p.Dim
	x, y, z := coords3(lo, d)
	for c := lo; c < hi; c++ {
		w.updateCell(c, x, y, z)
		x, y, z = next3(x, y, z, d)
	}
}

// updateCell computes cell c = (x, y, z)'s next value from its six
// neighbours — a damped averaging update that is numerically stable
// over any number of steps.
func (w *BT) updateCell(c, x, y, z int) {
	d := w.p.Dim
	xm, xp := axisSteps(x, d, d*d)
	ym, yp := axisSteps(y, d, d)
	zm, zp := axisSteps(z, d, 1)
	cell := func(i int) *[5]float64 { return (*[5]float64)(w.cur[i*5:]) }
	nxm, nxp, nym, nyp, nzm, nzp := cell(c+xm), cell(c+xp), cell(c+ym), cell(c+yp), cell(c+zm), cell(c+zp)
	me, out := cell(c), (*[5]float64)(w.next[c*5:])
	for v := range out {
		// Left to right from 0: the order the output digests pin.
		sum := 0.0 + nxm[v] + nxp[v] + nym[v] + nyp[v] + nzm[v] + nzp[v]
		out[v] = 0.4*me[v] + 0.1*sum
	}
}

// Checksum reduces the field to one number for verification.
func (w *BT) Checksum() float64 {
	var s float64
	for _, v := range w.cur {
		s += v
	}
	return s
}

// Verify replays the same number of steps serially from the same
// initial field and compares the fields value by value. The replay
// splits each cell index with / and % and wraps each neighbour with a
// modulo, so it checks the kernel's incremental walk instead of
// repeating it.
func (w *BT) Verify() error {
	ref := NewBT(machine.MustNew(machine.DefaultConfig()), w.p)
	d := w.p.Dim
	cell := func(x, y, z int) int {
		x, y, z = (x+d)%d, (y+d)%d, (z+d)%d
		return ((x*d+y)*d + z) * 5
	}
	for step := 0; step < w.p.Steps; step++ {
		for c := 0; c < d*d*d; c++ {
			x, y, z := c/(d*d), c/d%d, c%d
			i := cell(x, y, z)
			nb := [6]int{
				cell(x-1, y, z), cell(x+1, y, z),
				cell(x, y-1, z), cell(x, y+1, z),
				cell(x, y, z-1), cell(x, y, z+1),
			}
			for v := 0; v < 5; v++ {
				sum := 0.0
				for _, b := range nb {
					sum += ref.cur[b+v]
				}
				ref.next[i+v] = 0.4*ref.cur[i+v] + 0.1*sum
			}
		}
		ref.cur, ref.next = ref.next, ref.cur
	}
	if i := fieldMismatch(w.cur, ref.cur); i >= 0 {
		return fmt.Errorf("bt: value %d is %v, want %v", i, w.cur[i], ref.cur[i])
	}
	return nil
}

func init() {
	register(Info{
		Name:    "bt",
		Class:   Scalable,
		Problem: "Fluid dynamics",
		Input:   "10x10x10 x 200 steps",
		Factory: func(m *machine.Machine) core.Workload {
			return NewBT(m, DefaultBTParams())
		},
	})
}

// Setup implements core.SetupWorkload: the serial field
// initialization touches both buffers, warming the on-chip caches
// with the grid.
func (w *BT) Setup(c *thread.Ctx) {
	n := len(w.cur)
	c.StoreRange(w.curAddr, 8*n)
	c.StoreRange(w.nextAddr, 8*n)
	c.Exec(uint64(2 * n))
}

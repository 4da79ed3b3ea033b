package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// MG re-implements the computational pattern of the NAS MG multigrid
// solver: V-cycles that smooth a fine 3D grid, restrict the residual
// to a coarse grid, smooth there, and prolongate back. Both grids
// stay on chip and the arithmetic dominates, so the kernel scales —
// FDT must keep it at 32 threads.
type MG struct {
	m *machine.Machine
	p MGParams

	fine, fineNext       []float64
	coarse, coarseNext   []float64
	fineAddr, coarseAddr uint64

	kernel *phasedKernel
}

// Slab counts for the V-cycle's four parallel phases. The fine-grid
// phases split finer than the coarse ones, keeping per-slab work
// roughly even.
const (
	mgFineSlabs   = 32
	mgCoarseSlabs = 8
)

// MGParams sizes MG.
type MGParams struct {
	// Dim is the fine-grid edge (paper: 64; scaled 24).
	Dim int
	// Cycles is the number of V-cycles (kernel iterations).
	Cycles int
	// PointInstr is the per-point smoothing work.
	PointInstr uint64
}

// DefaultMGParams returns the scaled Table-2 input.
func DefaultMGParams() MGParams {
	return MGParams{Dim: 16, Cycles: 150, PointInstr: 24}
}

// NewMG builds the workload with a deterministic initial field.
func NewMG(m *machine.Machine, p MGParams) *MG {
	mustMachine(m, "mg")
	if p.Dim%2 != 0 {
		panic("mg: Dim must be even for restriction")
	}
	w := &MG{m: m, p: p}
	nf := p.Dim * p.Dim * p.Dim
	nc := nf / 8
	w.fine = make([]float64, nf)
	w.fineNext = make([]float64, nf)
	w.coarse = make([]float64, nc)
	w.coarseNext = make([]float64, nc)
	r := newRNG(0x3197)
	for i := range w.fine {
		w.fine[i] = r.float64()
	}
	w.fineAddr = m.Alloc(8 * nf)
	w.coarseAddr = m.Alloc(8 * nc)
	w.buildKernel()
	return w
}

// buildKernel assembles the V-cycle as a phased kernel: smooth(fine)
// -> restrict -> smooth(coarse) -> prolongate, with slabs as the FDT
// iterations.
func (w *MG) buildKernel() {
	d := w.p.Dim
	dc := d / 2
	nf := d * d * d
	nc := nf / 8
	fineSlab := func(tc *thread.Ctx, slab int, work func(lo, hi int)) {
		lo, hi := slabRange(slab, mgFineSlabs, nf)
		w.slabMem(tc, w.fineAddr, lo, hi, work)
	}
	coarseSlab := func(tc *thread.Ctx, slab int, work func(lo, hi int)) {
		lo, hi := slabRange(slab, mgCoarseSlabs, nc)
		w.slabMem(tc, w.coarseAddr, lo, hi, work)
	}
	w.kernel = &phasedKernel{
		name:  "mg",
		steps: w.p.Cycles,
		phases: []phase{
			{
				slabs: mgFineSlabs,
				run: func(tc *thread.Ctx, s int) {
					fineSlab(tc, s, func(lo, hi int) { smooth(w.fine, w.fineNext, d, lo, hi) })
				},
				after: func() { w.fine, w.fineNext = w.fineNext, w.fine },
			},
			{
				slabs: mgCoarseSlabs,
				run: func(tc *thread.Ctx, s int) {
					coarseSlab(tc, s, w.restrict)
				},
			},
			{
				slabs: mgCoarseSlabs,
				run: func(tc *thread.Ctx, s int) {
					coarseSlab(tc, s, func(lo, hi int) { smooth(w.coarse, w.coarseNext, dc, lo, hi) })
				},
				after: func() { w.coarse, w.coarseNext = w.coarseNext, w.coarse },
			},
			{
				slabs: mgFineSlabs,
				run: func(tc *thread.Ctx, s int) {
					fineSlab(tc, s, w.prolong)
				},
			},
		},
	}
}

// slabMem charges a slab's memory traffic and compute, then performs
// the real arithmetic.
func (w *MG) slabMem(tc *thread.Ctx, addr uint64, lo, hi int, work func(lo, hi int)) {
	if hi <= lo {
		return
	}
	tc.LoadRange(addr+uint64(8*lo), 8*(hi-lo))
	tc.Exec(uint64(hi-lo) * w.p.PointInstr)
	work(lo, hi)
	tc.StoreRange(addr+uint64(8*lo), 8*(hi-lo))
}

// Name implements core.Workload.
func (w *MG) Name() string { return "mg" }

// Kernels implements core.Workload.
func (w *MG) Kernels() []core.Kernel { return []core.Kernel{w.kernel} }

// idx3 flattens (x, y, z) on a periodic d-edged grid. Every caller's
// coordinates lie in [-1, d], at most one step outside the grid, so
// each wraps with one compare and add instead of a modulo.
func idx3(x, y, z, d int) int {
	return (wrap1(x, d)*d+wrap1(y, d))*d + wrap1(z, d)
}

// wrap1 maps v in [-1, d] into [0, d) periodically.
func wrap1(v, d int) int {
	switch {
	case v < 0:
		return v + d
	case v >= d:
		return v - d
	}
	return v
}

// fieldMismatch returns the first index at which got differs from
// want by more than a relative 1e-9, or -1. The stencils conserve
// their fields' sums, so a value moved to the wrong point leaves a
// checksum unchanged; comparing every value catches it.
func fieldMismatch(got, want []float64) int {
	for i, v := range want {
		if math.Abs(got[i]-v) > 1e-9*math.Abs(v) {
			return i
		}
	}
	return -1
}

// coords3 splits point c of a d-edged grid into (x, y, z), the
// inverse of idx3 on the grid.
func coords3(c, d int) (x, y, z int) {
	return c / (d * d), c / d % d, c % d
}

// next3 steps (x, y, z) to the next point of a d-edged grid in index
// order: loops over a block of points split its first index once and
// walk the rest.
func next3(x, y, z, d int) (int, int, int) {
	if z++; z == d {
		z = 0
		if y++; y == d {
			y = 0
			x++
		}
	}
	return x, y, z
}

// axisSteps returns the index offsets from a point to its two
// periodic neighbours along one axis of a d-edged grid: v is the
// point's coordinate on the axis, stride the index step along it.
func axisSteps(v, d, stride int) (minus, plus int) {
	return (wrap1(v-1, d) - v) * stride, (wrap1(v+1, d) - v) * stride
}

// smooth performs one Jacobi smoothing step of src into dst over the
// block [lo, hi) of a d-edged grid.
func smooth(src, dst []float64, d, lo, hi int) {
	x, y, z := coords3(lo, d)
	for c := lo; c < hi; c++ {
		xm, xp := axisSteps(x, d, d*d)
		ym, yp := axisSteps(y, d, d)
		zm, zp := axisSteps(z, d, 1)
		sum := src[c+xm] + src[c+xp] + src[c+ym] + src[c+yp] + src[c+zm] + src[c+zp]
		dst[c] = 0.5*src[c] + sum/12
		x, y, z = next3(x, y, z, d)
	}
}

// restrict averages each coarse point [lo, hi)'s eight fine children
// into the coarse grid.
func (w *MG) restrict(lo, hi int) {
	d, dc := w.p.Dim, w.p.Dim/2
	x, y, z := coords3(lo, dc)
	for c := lo; c < hi; c++ {
		b := idx3(2*x, 2*y, 2*z, d) // children lie inside the grid
		sum := 0.0
		for ox := 0; ox < 2; ox++ {
			for oy := 0; oy < 2; oy++ {
				for oz := 0; oz < 2; oz++ {
					sum += w.fine[b+(ox*d+oy)*d+oz]
				}
			}
		}
		w.coarse[c] = sum / 8
		x, y, z = next3(x, y, z, dc)
	}
}

// prolong blends each fine point [lo, hi) with its coarse parent.
func (w *MG) prolong(lo, hi int) {
	d, dc := w.p.Dim, w.p.Dim/2
	x, y, z := coords3(lo, d)
	for c := lo; c < hi; c++ {
		w.fine[c] = 0.75*w.fine[c] + 0.25*w.coarse[idx3(x/2, y/2, z/2, dc)]
		x, y, z = next3(x, y, z, d)
	}
}

// Checksum reduces the fine grid to one number.
func (w *MG) Checksum() float64 {
	var s float64
	for _, v := range w.fine {
		s += v
	}
	return s
}

// Verify replays the V-cycles serially and compares the fine grids
// point by point. The replay splits each point's index with / and % and reaches every
// neighbour, child and parent through idx3, so it checks the kernel's
// incremental walk instead of repeating it.
func (w *MG) Verify() error {
	ref := NewMG(machine.MustNew(machine.DefaultConfig()), w.p)
	d := ref.p.Dim
	dc := d / 2
	nf := d * d * d
	nc := nf / 8
	smoothAll := func(src, dst []float64, d int) {
		for c := 0; c < d*d*d; c++ {
			x, y, z := c/(d*d), c/d%d, c%d
			sum := src[idx3(x-1, y, z, d)] + src[idx3(x+1, y, z, d)] +
				src[idx3(x, y-1, z, d)] + src[idx3(x, y+1, z, d)] +
				src[idx3(x, y, z-1, d)] + src[idx3(x, y, z+1, d)]
			dst[c] = 0.5*src[c] + sum/12
		}
	}
	for cyc := 0; cyc < ref.p.Cycles; cyc++ {
		smoothAll(ref.fine, ref.fineNext, d)
		ref.fine, ref.fineNext = ref.fineNext, ref.fine
		for c := 0; c < nc; c++ {
			x, y, z := c/(dc*dc), c/dc%dc, c%dc
			sum := 0.0
			for ox := 0; ox < 2; ox++ {
				for oy := 0; oy < 2; oy++ {
					for oz := 0; oz < 2; oz++ {
						sum += ref.fine[idx3(2*x+ox, 2*y+oy, 2*z+oz, d)]
					}
				}
			}
			ref.coarse[c] = sum / 8
		}
		smoothAll(ref.coarse, ref.coarseNext, dc)
		ref.coarse, ref.coarseNext = ref.coarseNext, ref.coarse
		for c := 0; c < nf; c++ {
			x, y, z := c/(d*d), c/d%d, c%d
			ref.fine[c] = 0.75*ref.fine[c] + 0.25*ref.coarse[idx3(x/2, y/2, z/2, dc)]
		}
	}
	if i := fieldMismatch(w.fine, ref.fine); i >= 0 {
		return fmt.Errorf("mg: fine point %d is %v, want %v", i, w.fine[i], ref.fine[i])
	}
	return nil
}

func init() {
	register(Info{
		Name:    "mg",
		Class:   Scalable,
		Problem: "Multi-grid solver",
		Input:   "16x16x16 x 150 V-cycles",
		Factory: func(m *machine.Machine) core.Workload {
			return NewMG(m, DefaultMGParams())
		},
	})
}

// Setup implements core.SetupWorkload: serial initialization of both
// grids, warming the on-chip caches.
func (w *MG) Setup(c *thread.Ctx) {
	c.StoreRange(w.fineAddr, 8*len(w.fine))
	c.StoreRange(w.coarseAddr, 8*len(w.coarse))
	c.Exec(uint64(len(w.fine) + len(w.coarse)))
}

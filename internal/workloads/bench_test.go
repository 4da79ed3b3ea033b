package workloads

import (
	"testing"

	"fdt/internal/machine"
)

// BenchmarkKernelArithmetic times the Go arithmetic behind one pass of
// each scalable kernel at its Table-2 defaults, with no simulator: one
// pricing of every option, one convolved frame, one BT time step and
// one MG V-cycle. A run computes each distinct value once (bscholes,
// sconv) or once per step (bt, mg), so this is the kernels' host cost
// apart from the simulation they drive.
func BenchmarkKernelArithmetic(b *testing.B) {
	m := machine.MustNew(machine.DefaultConfig())
	b.Run("bscholes", func(b *testing.B) {
		w := NewBScholes(m, DefaultBScholesParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for o := range w.call {
				w.call[o], w.put[o] = w.price(o)
			}
		}
	})
	b.Run("sconv", func(b *testing.B) {
		w := NewSConv(m, DefaultSConvParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.rowPass(0, w.p.Size)
			w.colPass(0, w.p.Size)
		}
	})
	b.Run("bt", func(b *testing.B) {
		w := NewBT(m, DefaultBTParams())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.updateCells(0, len(w.cur)/5)
			w.cur, w.next = w.next, w.cur
		}
	})
	b.Run("mg", func(b *testing.B) {
		w := NewMG(m, DefaultMGParams())
		d := w.p.Dim
		nf := d * d * d
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			smooth(w.fine, w.fineNext, d, 0, nf)
			w.fine, w.fineNext = w.fineNext, w.fine
			w.restrict(0, nf/8)
			smooth(w.coarse, w.coarseNext, d/2, 0, nf/8)
			w.coarse, w.coarseNext = w.coarseNext, w.coarse
			w.prolong(0, nf)
		}
	})
}

package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// SConv re-implements the CUDA-SDK separable-convolution sample: a 2D
// image convolved with a separable Gaussian — a horizontal pass into
// a temporary, a barrier, then a vertical pass into the output,
// repeated over a stream of frames. The image stays on chip and the
// multiply-accumulate work dominates, so the kernel scales and FDT
// must keep it at 32 threads.
//
// Each pass is sliced into sconvSlabs row/column bands; the bands are
// the kernel's fine-grained FDT iterations.
type SConv struct {
	m *machine.Machine
	p SConvParams

	img, tmp, out []float32
	kernelTaps    []float32
	imgAddr       uint64
	tmpAddr       uint64
	outAddr       uint64

	kernel *phasedKernel
}

const sconvSlabs = 16

// SConvParams sizes SConv.
type SConvParams struct {
	// Size is the square image edge.
	Size int
	// Radius is the filter radius (CUDA SDK: 8).
	Radius int
	// Frames is the number of images convolved.
	Frames int
	// TapInstr is the work per filter tap.
	TapInstr uint64
}

// DefaultSConvParams returns the scaled Table-2 input.
func DefaultSConvParams() SConvParams {
	return SConvParams{Size: 64, Radius: 8, Frames: 150, TapInstr: 2}
}

// NewSConv builds the workload with a deterministic image and a
// normalized Gaussian kernel.
func NewSConv(m *machine.Machine, p SConvParams) *SConv {
	mustMachine(m, "sconv")
	w := &SConv{m: m, p: p}
	n := p.Size * p.Size
	w.img = make([]float32, n)
	w.tmp = make([]float32, n)
	w.out = make([]float32, n)
	r := newRNG(0x5c07)
	for i := range w.img {
		w.img[i] = float32(r.float64())
	}
	w.kernelTaps = make([]float32, 2*p.Radius+1)
	var sum float64
	for i := range w.kernelTaps {
		d := float64(i - p.Radius)
		v := math.Exp(-d * d / (2 * float64(p.Radius) * float64(p.Radius) / 9))
		w.kernelTaps[i] = float32(v)
		sum += v
	}
	for i := range w.kernelTaps {
		w.kernelTaps[i] = float32(float64(w.kernelTaps[i]) / sum)
	}
	w.imgAddr = m.Alloc(4 * n)
	w.tmpAddr = m.Alloc(4 * n)
	w.outAddr = m.Alloc(4 * n)

	s := p.Size
	taps := uint64(2*p.Radius + 1)
	w.kernel = &phasedKernel{
		name:  "sconv",
		steps: p.Frames,
		phases: []phase{
			{
				slabs: sconvSlabs,
				run: func(tc *thread.Ctx, slab int) {
					lo, hi := slabRange(slab, sconvSlabs, s)
					if hi <= lo {
						return
					}
					tc.LoadRange(w.imgAddr+uint64(4*lo*s), 4*(hi-lo)*s)
					tc.Exec(uint64((hi-lo)*s) * taps * p.TapInstr)
					w.rowPass(lo, hi)
					tc.StoreRange(w.tmpAddr+uint64(4*lo*s), 4*(hi-lo)*s)
				},
			},
			{
				slabs: sconvSlabs,
				run: func(tc *thread.Ctx, slab int) {
					lo, hi := slabRange(slab, sconvSlabs, s)
					if hi <= lo {
						return
					}
					// The column band reads a radius-widened strip of tmp.
					tc.LoadRange(w.tmpAddr+uint64(4*lo*s), 4*(hi-lo)*s)
					tc.Exec(uint64((hi-lo)*s) * taps * p.TapInstr)
					w.colPass(lo, hi)
					tc.StoreRange(w.outAddr+uint64(4*lo*s), 4*(hi-lo)*s)
				},
			},
		},
	}
	return w
}

// Name implements core.Workload.
func (w *SConv) Name() string { return "sconv" }

// Kernels implements core.Workload.
func (w *SConv) Kernels() []core.Kernel { return []core.Kernel{w.kernel} }

// rowPass convolves rows [lo, hi) of img into tmp.
func (w *SConv) rowPass(lo, hi int) {
	s := w.p.Size
	for y := lo; y < hi; y++ {
		convolveLine(w.tmp, w.img, y*s, 1, s, w.kernelTaps)
	}
}

// colPass convolves columns [lo, hi) of tmp into out.
func (w *SConv) colPass(lo, hi int) {
	s := w.p.Size
	for x := lo; x < hi; x++ {
		convolveLine(w.out, w.tmp, x, s, s, w.kernelTaps)
	}
}

// convolveLine convolves the n-element line src[off+i*stride] with
// taps, wrapping at the line's ends, into dst at the same positions.
// Pixels whose taps all fall inside the line index directly; only the
// ones within a radius of either end wrap. Both loops sum the taps in
// the same order, so every pixel is bit-identical to a fully wrapped
// loop. The radius must not exceed n.
func convolveLine(dst, src []float32, off, stride, n int, taps []float32) {
	r := len(taps) / 2
	for i := 0; i < n; i++ {
		var acc float32
		if i >= r && i+r < n {
			p := off + (i-r)*stride
			win := src[p : p+(len(taps)-1)*stride+1]
			for k, t := range taps {
				acc += t * win[k*stride]
			}
		} else {
			for k, t := range taps {
				j := i + k - r
				if j < 0 {
					j += n
				} else if j >= n {
					j -= n
				}
				acc += t * src[off+j*stride]
			}
		}
		dst[off+i*stride] = acc
	}
}

// Verify recomputes both passes serially and compares bit-exactly
// (per-pixel accumulation order is fixed).
func (w *SConv) Verify() error {
	ref := &SConv{m: w.m, p: w.p, img: w.img, kernelTaps: w.kernelTaps}
	ref.tmp = make([]float32, len(w.tmp))
	ref.out = make([]float32, len(w.out))
	ref.rowPass(0, w.p.Size)
	ref.colPass(0, w.p.Size)
	for i := range ref.out {
		if ref.out[i] != w.out[i] {
			return fmt.Errorf("sconv: pixel %d = %v, want %v", i, w.out[i], ref.out[i])
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "sconv",
		Class:   Scalable,
		Problem: "2D separable convolution",
		Input:   "64x64, radius 8, 150 frames",
		Factory: func(m *machine.Machine) core.Workload {
			return NewSConv(m, DefaultSConvParams())
		},
	})
}

// Setup implements core.SetupWorkload: the frame buffer and
// intermediates are initialized serially, warming the caches.
func (w *SConv) Setup(c *thread.Ctx) {
	n := w.p.Size * w.p.Size
	c.StoreRange(w.imgAddr, 4*n)
	c.StoreRange(w.tmpAddr, 4*n)
	c.StoreRange(w.outAddr, 4*n)
	c.Exec(uint64(n))
}

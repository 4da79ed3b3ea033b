package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// Convert re-implements the unix image-conversion utility's kernel:
// each output row is computed from the corresponding input row and
// written to a fresh buffer, so both the read and the write stream
// consume off-chip bandwidth (Section 5.3). Per-pixel work is heavier
// than ED's (gamma correction + channel remap), so a single thread
// uses less of the bus and it takes more threads to saturate.
//
// Tuning target: single-thread bus utilization ~6% (paper: 5.8%,
// BAT predicts 17 with the minimum at 18, Fig 12b).
type Convert struct {
	m *machine.Machine
	p ConvertParams

	in      []uint32 // packed RGBA; shared read-only input
	out     []uint32
	inAddr  uint64
	outAddr uint64

	gamma [256]uint8
}

// ConvertParams sizes Convert.
type ConvertParams struct {
	// Width and Height size the image in pixels (paper: 320x240).
	Width, Height int
	// PixelInstr is the per-pixel conversion work.
	PixelInstr uint64
}

// DefaultConvertParams returns the Table-2 input (unscaled — the
// paper's 320x240 image is already simulation-friendly).
func DefaultConvertParams() ConvertParams {
	return ConvertParams{Width: 320, Height: 240, PixelInstr: 120}
}

// NewConvert builds the workload with a deterministic source image
// and a gamma table.
func NewConvert(m *machine.Machine, p ConvertParams) *Convert {
	mustMachine(m, "convert")
	w := &Convert{m: m, p: p}
	n := p.Width * p.Height
	w.in = readOnlyInput(p, func() []uint32 {
		in := make([]uint32, n)
		r := newRNG(0xc07)
		for i := range in {
			in[i] = uint32(r.next())
		}
		return in
	})
	w.out = make([]uint32, n)
	for i := range w.gamma {
		// A fixed-point gamma ~2.2 curve, computed without floats so
		// the table is bit-exact everywhere.
		v := i * i / 255
		w.gamma[i] = uint8(v)
	}
	w.inAddr = m.Alloc(4 * n)
	w.outAddr = m.Alloc(4 * n)
	return w
}

// Name implements core.Workload.
func (w *Convert) Name() string { return "convert" }

// Kernels implements core.Workload.
func (w *Convert) Kernels() []core.Kernel { return []core.Kernel{w} }

// Iterations implements core.Kernel: one iteration per image row
// ("the kernel computes one row of the output image at a time").
func (w *Convert) Iterations() int { return w.p.Height }

// convertPixel is the real per-pixel transform: gamma-correct each
// channel and swap R/B (an RGBA -> BGRA conversion).
func (w *Convert) convertPixel(px uint32) uint32 {
	r := uint32(w.gamma[px>>24&0xff])
	g := uint32(w.gamma[px>>16&0xff])
	b := uint32(w.gamma[px>>8&0xff])
	a := px & 0xff
	return b<<24 | g<<16 | r<<8 | a
}

// RunChunk implements core.Kernel: rows [lo, hi) split across the
// team. The conversion interleaves at line granularity — load a line
// of pixels, convert them, store the output line — the natural
// instruction stream of the real kernel (an artificial
// load-everything-then-compute structure would make the bus traffic
// bursty and convoy-prone).
func (w *Convert) RunChunk(master *thread.Ctx, n, lo, hi int) {
	const pxPerLine = 16 // 64-byte line / 4-byte pixel
	master.Fork(n, func(tc *thread.Ctx) {
		myLo, myHi := tc.Range(lo, hi)
		for row := myLo; row < myHi; row++ {
			base := row * w.p.Width
			for x := 0; x < w.p.Width; x += pxPerLine {
				tc.Load(w.inAddr + uint64(4*(base+x)))
				tc.Exec(pxPerLine * w.p.PixelInstr)
				end := x + pxPerLine
				if end > w.p.Width {
					end = w.p.Width
				}
				for i := base + x; i < base+end; i++ {
					w.out[i] = w.convertPixel(w.in[i])
				}
				tc.StoreRange(w.outAddr+uint64(4*(base+x)), 4*(end-x))
			}
		}
	})
}

// Verify re-converts the image serially and compares every pixel.
func (w *Convert) Verify() error {
	for i, px := range w.in {
		if want := w.convertPixel(px); w.out[i] != want {
			return fmt.Errorf("convert: pixel %d = %#x, want %#x", i, w.out[i], want)
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "convert",
		Class:   BWLimited,
		Problem: "Image processing",
		Input:   "320x240 pixels",
		Factory: func(m *machine.Machine) core.Workload {
			return NewConvert(m, DefaultConvertParams())
		},
	})
}

package workloads

import (
	"math"
	"testing"

	"fdt/internal/machine"
)

// wrappedPasses is the reference convolution: both passes with every
// tap index wrapped by modulo, the straightforward form rowPass and
// colPass must match bit for bit.
func wrappedPasses(w *SConv) (tmp, out []float32) {
	s, r := w.p.Size, w.p.Radius
	at := func(x, y int) int { return (y+s)%s*s + (x+s)%s }
	tmp = make([]float32, s*s)
	out = make([]float32, s*s)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			var acc float32
			for k := -r; k <= r; k++ {
				acc += w.kernelTaps[k+r] * w.img[at(x+k, y)]
			}
			tmp[y*s+x] = acc
		}
	}
	for x := 0; x < s; x++ {
		for y := 0; y < s; y++ {
			var acc float32
			for k := -r; k <= r; k++ {
				acc += w.kernelTaps[k+r] * tmp[at(x, y+k)]
			}
			out[y*s+x] = acc
		}
	}
	return tmp, out
}

// TestSConvPassesMatchWrapped checks the split interior/edge passes
// against the fully wrapped reference. Verify runs the same passes
// as the kernel, so it cannot catch a change in their result; this
// test can. Radii reach past half the image, where no pixel has an
// unwrapped interior.
func TestSConvPassesMatchWrapped(t *testing.T) {
	for _, c := range []struct{ size, radius int }{
		{1, 0}, {1, 1}, {5, 1}, {8, 3}, {8, 4}, {8, 5}, {8, 8}, {16, 8}, {17, 2}, {64, 8},
	} {
		m := machine.MustNew(machine.DefaultConfig())
		w := NewSConv(m, SConvParams{Size: c.size, Radius: c.radius, Frames: 1, TapInstr: 2})
		w.rowPass(0, c.size)
		w.colPass(0, c.size)
		tmp, out := wrappedPasses(w)
		for i := range out {
			if math.Float32bits(w.tmp[i]) != math.Float32bits(tmp[i]) {
				t.Fatalf("size %d radius %d: tmp[%d] = %v, want %v", c.size, c.radius, i, w.tmp[i], tmp[i])
			}
			if math.Float32bits(w.out[i]) != math.Float32bits(out[i]) {
				t.Fatalf("size %d radius %d: out[%d] = %v, want %v", c.size, c.radius, i, w.out[i], out[i])
			}
		}
	}
}

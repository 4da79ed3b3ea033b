package mem

import (
	"testing"
	"testing/quick"
)

func TestRingHopsShorterDirection(t *testing.T) {
	cases := []struct {
		a, b int
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 16, 16}, // exactly opposite
		{0, 31, 1},  // wraps
		{5, 29, 8},
		{29, 5, 8}, // symmetric
	}
	for _, c := range cases {
		if got := hops(32, c.a, c.b); got != c.want {
			t.Errorf("hops(32, %d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRingBankPlacement(t *testing.T) {
	// Banks at stops 0,4,8,...,28.
	for b := 0; b < 8; b++ {
		if got, want := bankStop(32, 8, b), b*4; got != want {
			t.Errorf("bankStop(32, 8, %d) = %d, want %d", b, got, want)
		}
	}
}

func TestRingLatencyScalesWithHopLat(t *testing.T) {
	r := NewRing(32, 8, 3)
	if got := r.CoreToBank(2, 0); got != 6 {
		t.Errorf("CoreToBank(2,0) = %d, want 6 (2 hops x 3)", got)
	}
	// The precomputed table holds the hop formula for every (core,
	// bank) pair, on rings of several shapes.
	for _, g := range []struct {
		cores, banks int
		hopLat       uint64
	}{{32, 8, 1}, {32, 8, 3}, {8, 8, 2}, {16, 4, 1}, {4, 1, 5}} {
		r := NewRing(g.cores, g.banks, g.hopLat)
		for c := 0; c < g.cores; c++ {
			for b := 0; b < g.banks; b++ {
				d := c - b*(g.cores/g.banks)
				if d < 0 {
					d = -d
				}
				if g.cores-d < d {
					d = g.cores - d
				}
				if got, want := r.CoreToBank(c, b), uint64(d)*g.hopLat; got != want {
					t.Errorf("%d cores, %d banks, %d cycles a hop: CoreToBank(%d, %d) = %d, want %d",
						g.cores, g.banks, g.hopLat, c, b, got, want)
				}
			}
		}
	}
}

func TestPropertyRingSymmetricAndBounded(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := int(a%32), int(b%32)
		h := hops(32, x, y)
		return h == hops(32, y, x) && h <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRingTriangleInequality(t *testing.T) {
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%32), int(b%32), int(c%32)
		return hops(32, x, z) <= hops(32, x, y)+hops(32, y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must not assume order
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {100, 10}, {10, 1}, {1, 1}, {95, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{5, 50},    // too few for any candidate: the median, flagged by n
		{19, 50},   // p50 of 19 has 9 beyond
		{20, 50},   // p50 has exactly 10 beyond
		{99, 50},   // p90 of 99 has 9 beyond
		{100, 90},  // p90 has exactly 10 beyond
		{999, 90},  // p99 of 999 has 9 beyond
		{1000, 99}, // p99 has exactly 10 beyond
		{10000, 99.9},
	} {
		p, v, n := tailPercentile(seq(c.n))
		if p != c.wantP || n != c.n {
			t.Errorf("n=%d: tail p%g (n=%d), want p%g", c.n, p, n, c.wantP)
			continue
		}
		if beyond := c.n - int(v); beyond < 10 && c.n >= 20 {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want >= 10", c.n, p, v, beyond)
		}
	}
	if p, v, n := tailPercentile(nil); p != 0 || v != 0 || n != 0 {
		t.Errorf("tailPercentile(nil) = %g, %g, %d", p, v, n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %g, want 3", got)
	}
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
}

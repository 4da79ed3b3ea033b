package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile
// in a sorted sample of n. The epsilon absorbs float error in p/100*n
// (99.9% of 10000 must be rank 9990, not 9991).
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentiles are the candidates tailPercentile picks from,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile reports the highest of tailPercentiles that has at
// least ten samples strictly beyond it, its value, and the sample
// count it was drawn from. Below 20 samples no candidate qualifies and
// the median is reported; the count tells the reader how little that
// says.
func tailPercentile(xs []float64) (p, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	for _, p := range tailPercentiles {
		if i := rankIndex(n, p); n-1-i >= 10 {
			return p, s[i], n
		}
	}
	return 50, s[rankIndex(n, 50)], n
}

// median is the middle sample (mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method
// Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads printed here match a reviewer's own
// calculation. With fewer than two samples both quartiles are the
// sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median: the
// noise figure BENCHMARK.json's bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

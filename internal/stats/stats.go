// Package stats provides the small numeric helpers the experiment
// harness uses to summarize simulation results: geometric means,
// argmin and the oracle's fewest-within-tolerance rule.
package stats

import (
	"fmt"
	"math"
)

// Gmean computes the geometric mean of positive values (the paper's
// gmean bar in Figs 14/15). Panics on empty input or non-positive
// values.
func Gmean(vals []float64) float64 {
	if len(vals) == 0 {
		panic("stats: gmean of empty slice")
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			panic(fmt.Sprintf("stats: gmean of non-positive value %v", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// ArgMinUint reports the index of the smallest cycle count (first on
// ties) and the count itself. Panics on empty input.
func ArgMinUint(vals []uint64) (int, uint64) {
	if len(vals) == 0 {
		panic("stats: argmin of empty slice")
	}
	bi, bv := 0, vals[0]
	for i, v := range vals[1:] {
		if v < bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}

// FewestWithin reports the smallest index i such that vals[i] is
// within tolerance (fractional) of the minimum — the oracle's
// "fewest threads within 1% of the minimum execution time" rule.
func FewestWithin(vals []uint64, tolerance float64) int {
	_, best := ArgMinUint(vals)
	limit := float64(best) * (1 + tolerance)
	for i, v := range vals {
		if float64(v) <= limit {
			return i
		}
	}
	return len(vals) - 1
}

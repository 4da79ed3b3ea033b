// Package shape is the machine-checked figure-shape regression suite:
// it encodes EXPERIMENTS.md's prose claims about the paper's curves —
// PageMine's valley, ED's knee, where SAT/BAT/FDT land — as named,
// executable assertions over the experiment results. A refactor or
// optimization that silently bends a curve now fails a named
// assertion instead of quietly shifting a number in a document.
//
// The package has two layers. The predicates in this file are pure
// functions over already-computed curves and points — cheap to test
// against synthetic data and reusable by mutation tests that must not
// touch the experiment run cache. The registry in assertions.go binds
// predicates to the experiment runners under stable names
// ("fig2-pagemine-valley", ...), which EXPERIMENTS.md references from
// each claim.
package shape

import (
	"fmt"

	"fdt/internal/experiments"
)

// Valley checks the U/valley shape of a synchronization-limited curve:
// the minimum sits at an interior thread count inside [minLo, minHi],
// the curve falls from its 1-thread start to the minimum, and the
// all-cores end rises at least endRiseFactor above the minimum.
func Valley(c experiments.Curve, minLo, minHi int, endRiseFactor float64) error {
	if len(c.Points) < 3 {
		return fmt.Errorf("%s: %d sweep points, too few for a valley", c.Workload, len(c.Points))
	}
	first, last := c.Points[0], c.Points[len(c.Points)-1]
	if c.MinThreads <= first.Threads || c.MinThreads >= last.Threads {
		return fmt.Errorf("%s: minimum at %d threads is not interior to [%d, %d] — no valley",
			c.Workload, c.MinThreads, first.Threads, last.Threads)
	}
	if c.MinThreads < minLo || c.MinThreads > minHi {
		return fmt.Errorf("%s: minimum at %d threads, outside the claimed band [%d, %d]",
			c.Workload, c.MinThreads, minLo, minHi)
	}
	if first.Cycles <= c.MinCycles {
		return fmt.Errorf("%s: 1-thread time (%d) does not fall toward the minimum (%d)",
			c.Workload, first.Cycles, c.MinCycles)
	}
	if got := float64(last.Cycles) / float64(c.MinCycles); got < endRiseFactor {
		return fmt.Errorf("%s: time at %d threads is only %.2fx the minimum, want >= %.2fx — the right wall is missing",
			c.Workload, last.Threads, got, endRiseFactor)
	}
	return nil
}

// Flattens checks the L-shape of a bandwidth-limited curve: the
// all-cores end stays within maxEndOverMin of the minimum (the curve
// stops improving but does not climb a wall).
func Flattens(c experiments.Curve, maxEndOverMin float64) error {
	if len(c.Points) < 2 {
		return fmt.Errorf("%s: %d sweep points, too few", c.Workload, len(c.Points))
	}
	last := c.Points[len(c.Points)-1]
	if got := float64(last.Cycles) / float64(c.MinCycles); got > maxEndOverMin {
		return fmt.Errorf("%s: time at %d threads is %.2fx the minimum, want <= %.2fx — curve did not flatten",
			c.Workload, last.Threads, got, maxEndOverMin)
	}
	return nil
}

// KneeWithin checks that the bus saturates (utilization >= util)
// first at a thread count inside [lo, hi] — the knee-position band.
func KneeWithin(c experiments.Curve, util float64, lo, hi int) error {
	knee := c.SaturationThreads(util)
	if knee == 0 {
		return fmt.Errorf("%s: bus never reaches %.0f%% utilization on the sweep — no knee",
			c.Workload, 100*util)
	}
	if knee < lo || knee > hi {
		return fmt.Errorf("%s: bus saturates first at %d threads, outside the claimed band [%d, %d]",
			c.Workload, knee, lo, hi)
	}
	return nil
}

// WithinValley checks that a policy landed near a curve's floor: at
// most maxOverMinPct percent above the sweep minimum.
func WithinValley(c experiments.Curve, pp experiments.PolicyPoint, maxOverMinPct float64) error {
	if pp.OverMinPct > maxOverMinPct {
		return fmt.Errorf("%s: %s is %.1f%% above the sweep minimum, want <= %.0f%%",
			c.Workload, pp.Policy, pp.OverMinPct, maxOverMinPct)
	}
	return nil
}

// NonDecreasing checks that a series of chosen thread counts never
// shrinks, and strictly grows end to end — the monotone-knee claim.
func NonDecreasing(label string, xs []int) error {
	if len(xs) < 2 {
		return fmt.Errorf("%s: %d points, too few for a trend", label, len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return fmt.Errorf("%s: not monotone at index %d: %v", label, i, xs)
		}
	}
	if xs[len(xs)-1] <= xs[0] {
		return fmt.Errorf("%s: no end-to-end growth: %v", label, xs)
	}
	return nil
}

// RatioIn checks got/base against [lo, hi].
func RatioIn(label string, got, base, lo, hi float64) error {
	if base == 0 {
		return fmt.Errorf("%s: zero base", label)
	}
	r := got / base
	if r < lo || r > hi {
		return fmt.Errorf("%s: ratio %.3f outside [%.3f, %.3f]", label, r, lo, hi)
	}
	return nil
}

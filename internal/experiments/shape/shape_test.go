package shape

// Predicate unit tests on synthetic curves — no simulation. The
// suite that runs the registry against real experiment results lives
// in internal/experiments (shape_suite_test.go), where it shares one
// run cache with the other experiment tests.

import (
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/experiments"
)

// curve builds a synthetic sweep from (threads, cycles) pairs, with
// optional bus utilizations.
func curve(threads []int, cycles []uint64, busUtil []float64) experiments.Curve {
	c := experiments.Curve{Workload: "synthetic"}
	base := cycles[0]
	minIdx := 0
	for i := range threads {
		p := experiments.SweepPoint{
			Threads:  threads[i],
			Cycles:   cycles[i],
			NormTime: float64(cycles[i]) / float64(base),
		}
		if busUtil != nil {
			p.BusUtil = busUtil[i]
		}
		c.Points = append(c.Points, p)
		if cycles[i] < cycles[minIdx] {
			minIdx = i
		}
	}
	c.MinThreads = threads[minIdx]
	c.MinCycles = cycles[minIdx]
	return c
}

func TestValley(t *testing.T) {
	u := curve([]int{1, 2, 4, 8, 16, 32}, []uint64{100, 60, 40, 55, 80, 90}, nil)
	if err := Valley(u, 2, 8, 1.3); err != nil {
		t.Errorf("true valley rejected: %v", err)
	}
	cases := []struct {
		name string
		c    experiments.Curve
		want string
	}{
		{"too few points", curve([]int{1, 32}, []uint64{100, 50}, nil), "too few"},
		{"min at edge", curve([]int{1, 2, 4, 8}, []uint64{100, 80, 60, 40}, nil), "no valley"},
		{"min outside band", curve([]int{1, 8, 16, 32}, []uint64{100, 60, 40, 80}, nil), "outside the claimed band"},
		{"no right wall", curve([]int{1, 2, 4, 8, 32}, []uint64{100, 60, 40, 42, 45}, nil), "right wall"},
	}
	for _, tc := range cases {
		err := Valley(tc.c, 2, 8, 1.3)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestFlattens(t *testing.T) {
	l := curve([]int{1, 4, 8, 32}, []uint64{100, 40, 30, 32}, nil)
	if err := Flattens(l, 1.15); err != nil {
		t.Errorf("flat curve rejected: %v", err)
	}
	wall := curve([]int{1, 4, 8, 32}, []uint64{100, 40, 30, 60}, nil)
	if err := Flattens(wall, 1.15); err == nil {
		t.Error("climbing curve accepted as flat")
	}
}

func TestKnee(t *testing.T) {
	c := curve([]int{1, 4, 8, 16}, []uint64{100, 30, 25, 25},
		[]float64{0.13, 0.52, 0.97, 1.0})
	if got := c.SaturationThreads(0.95); got != 8 {
		t.Errorf("SaturationThreads = %d, want 8", got)
	}
	if err := KneeWithin(c, 0.95, 6, 12); err != nil {
		t.Errorf("knee at 8 rejected for band [6, 12]: %v", err)
	}
	if err := KneeWithin(c, 0.95, 10, 12); err == nil {
		t.Error("knee at 8 accepted for band [10, 12]")
	}
	unsat := curve([]int{1, 4}, []uint64{100, 30}, []float64{0.1, 0.4})
	if got := unsat.SaturationThreads(0.95); got != 0 {
		t.Errorf("unsaturated SaturationThreads = %d, want 0", got)
	}
	if err := KneeWithin(unsat, 0.95, 1, 32); err == nil || !strings.Contains(err.Error(), "no knee") {
		t.Errorf("unsaturated curve: err = %v, want \"no knee\"", err)
	}
}

func TestWithinValley(t *testing.T) {
	c := curve([]int{1, 4, 8}, []uint64{100, 50, 80}, nil)
	if err := WithinValley(c, experiments.PolicyPoint{Policy: "SAT", OverMinPct: 12}, 25); err != nil {
		t.Errorf("in-valley point rejected: %v", err)
	}
	if err := WithinValley(c, experiments.PolicyPoint{Policy: "SAT", OverMinPct: 40}, 25); err == nil {
		t.Error("far-from-valley point accepted")
	}
}

func TestNonDecreasing(t *testing.T) {
	if err := NonDecreasing("x", []int{2, 2, 4, 8}); err != nil {
		t.Errorf("monotone growth rejected: %v", err)
	}
	if err := NonDecreasing("x", []int{2, 4, 3, 8}); err == nil {
		t.Error("dip accepted")
	}
	if err := NonDecreasing("x", []int{4, 4, 4}); err == nil {
		t.Error("flat series accepted (no end-to-end growth)")
	}
	if err := NonDecreasing("x", []int{4}); err == nil {
		t.Error("single point accepted")
	}
}

func TestRatioIn(t *testing.T) {
	if err := RatioIn("x", 1.2, 1.0, 0, 1.35); err != nil {
		t.Errorf("in-range ratio rejected: %v", err)
	}
	if err := RatioIn("x", 1.5, 1.0, 0, 1.35); err == nil {
		t.Error("out-of-range ratio accepted")
	}
	if err := RatioIn("x", 1.0, 0, 0, 2); err == nil {
		t.Error("zero base accepted")
	}
}

func TestCurveOf(t *testing.T) {
	runs := []core.RunResult{
		{TotalCycles: 100, BusBusyCycles: 10},
		{TotalCycles: 60, BusBusyCycles: 30},
		{TotalCycles: 90, BusBusyCycles: 80},
	}
	c := experiments.CurveOf("w", []int{1, 4, 8}, runs)
	if c.MinThreads != 4 || c.MinCycles != 60 {
		t.Errorf("min = (%d threads, %d cycles), want (4, 60)", c.MinThreads, c.MinCycles)
	}
	if len(c.Points) != 3 || c.Points[2].NormTime != 0.9 {
		t.Errorf("points malformed: %+v", c.Points)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	experiments.CurveOf("w", []int{1, 2}, runs)
}

func TestRegistry(t *testing.T) {
	as := Assertions()
	if len(as) < 8 {
		t.Fatalf("%d assertions registered, the suite promises >= 8", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Claim == "" || a.Check == nil {
			t.Errorf("incomplete assertion: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate assertion name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if _, ok := ByName("fig2-pagemine-valley"); !ok {
		t.Error("ByName misses a registered assertion")
	}
	if _, ok := ByName("no-such-assertion"); ok {
		t.Error("ByName invents an assertion")
	}
}

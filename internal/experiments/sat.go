package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

// Fig08 reproduces Figure 8: SAT's placement on the baseline curves
// of the four synchronization-limited applications (PageMine, ISort,
// GSearch, EP). The paper reports SAT within 1% of the minimum
// execution time for all four.
type Fig08 struct {
	Panels []Fig08Panel
}

// Fig08Panel is one application's panel.
type Fig08Panel struct {
	Curve Curve
	SAT   PolicyPoint
}

// Fig08Workloads lists the panel order.
var Fig08Workloads = []string{"pagemine", "isort", "gsearch", "ep"}

// RunFig08 executes the experiment, one parallel panel per workload.
func RunFig08(o Options) Fig08 {
	var f Fig08
	f.Panels = make([]Fig08Panel, len(Fig08Workloads))
	runner.Map(len(Fig08Workloads), func(i int) {
		name := Fig08Workloads[i]
		c := sweep(o, name)
		f.Panels[i] = Fig08Panel{
			Curve: c,
			SAT:   policyPoint(o, name, core.SAT{}, c),
		}
	})
	return f
}

// String renders the figure.
func (f Fig08) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: SAT on synchronization-limited applications\n")
	for _, p := range f.Panels {
		formatCurve(&b, p.Curve, p.SAT)
	}
	return b.String()
}

// Fig09 reproduces Figure 9: the best number of threads for PageMine
// as the page size varies from 1KB to 25KB. The paper's best count
// grows from ~2 at 1KB to ~13 at 25KB — the reason a static choice
// tuned for one input set is wrong for another.
type Fig09 struct {
	PageBytes   []int
	BestThreads []int
	SATThreads  []int
}

// Fig09PageSizes are the swept page sizes (bytes).
var Fig09PageSizes = []int{1 << 10, 2560, 5280, 10 << 10, 15 << 10, 20 << 10, 25 << 10}

// RunFig09 executes the experiment, one parallel lane per page size.
// Each lane's runs are keyed by the PageMine parameters, so the 2.5KB
// and 10KB sweeps are shared verbatim with Fig 10.
func RunFig09(o Options) Fig09 {
	var f Fig09
	f.PageBytes = make([]int, len(Fig09PageSizes))
	f.BestThreads = make([]int, len(Fig09PageSizes))
	f.SATThreads = make([]int, len(Fig09PageSizes))
	runner.Map(len(Fig09PageSizes), func(i int) {
		pb := Fig09PageSizes[i]
		fac, wkey := pageMineSized(pb)
		runs := core.Sweep(o.Runs, o.spec(wkey, fac, core.Control{}), o.threads(), nil)
		times := make([]uint64, len(runs))
		for j, r := range runs {
			times[j] = r.TotalCycles
		}
		best := o.threads()[stats.FewestWithin(times, 0.01)]
		sat := o.spec(wkey, fac, core.Control{Policy: core.SAT{}}).Run(o.Runs)
		f.PageBytes[i] = pb
		f.BestThreads[i] = best
		f.SATThreads[i] = chosenThreads(sat)
	})
	return f
}

// pageMineSized builds a PageMine factory with a non-default page size
// plus the cache key naming that parameterization.
func pageMineSized(pageBytes int) (core.Factory, string) {
	params := workloads.DefaultPageMineParams()
	params.PageBytes = pageBytes
	fac := func(m *machine.Machine) core.Workload { return workloads.NewPageMine(m, params) }
	return fac, fmt.Sprintf("pagemine/pb=%d", pageBytes)
}

// String renders the figure.
func (f Fig09) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: best thread count vs PageMine page size\n")
	fmt.Fprintf(&b, "  %10s %6s %4s\n", "page-bytes", "best", "SAT")
	for i := range f.PageBytes {
		fmt.Fprintf(&b, "  %10d %6d %4d\n", f.PageBytes[i], f.BestThreads[i], f.SATThreads[i])
	}
	return b.String()
}

// Fig10 reproduces Figure 10: PageMine's curves for 2.5KB and 10KB
// pages with SAT's choice marked — SAT adapts to the input set.
type Fig10 struct {
	Small, Large Curve
	SATSmall     PolicyPoint
	SATLarge     PolicyPoint
}

// RunFig10 executes the experiment. Both page sizes also appear in
// Fig 9's sweep, so with a warm cache this figure simulates nothing.
func RunFig10(o Options) Fig10 {
	run := func(pageBytes int) (Curve, PolicyPoint) {
		fac, wkey := pageMineSized(pageBytes)
		ts := o.threads()
		c := CurveOf(fmt.Sprintf("pagemine-%dB", pageBytes), ts, core.Sweep(o.Runs, o.spec(wkey, fac, core.Control{}), ts, nil))
		sat := o.spec(wkey, fac, core.Control{Policy: core.SAT{}}).Run(o.Runs)
		pp := PolicyPoint{
			Policy:     "SAT",
			Run:        sat,
			NormTime:   float64(sat.TotalCycles) / float64(c.Points[0].Cycles),
			OverMinPct: 100 * (float64(sat.TotalCycles)/float64(c.MinCycles) - 1),
		}
		// The figure marks the paper's best: the fewest threads within
		// 1% of the minimum.
		times := make([]uint64, len(c.Points))
		for i, p := range c.Points {
			times[i] = p.Cycles
		}
		idx := stats.FewestWithin(times, 0.01)
		c.MinThreads, c.MinCycles = ts[idx], times[idx]
		return c, pp
	}
	var f Fig10
	sizes := []int{2560, 10 << 10}
	curves := make([]Curve, len(sizes))
	points := make([]PolicyPoint, len(sizes))
	runner.Map(len(sizes), func(i int) {
		curves[i], points[i] = run(sizes[i])
	})
	f.Small, f.SATSmall = curves[0], points[0]
	f.Large, f.SATLarge = curves[1], points[1]
	return f
}

// String renders the figure.
func (f Fig10) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: SAT adapts to PageMine page size (2.5KB and 10KB)\n")
	formatCurve(&b, f.Small, f.SATSmall)
	formatCurve(&b, f.Large, f.SATLarge)
	return b.String()
}

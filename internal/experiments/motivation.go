package experiments

import (
	"fmt"
	"strings"
)

// Fig02 reproduces Figure 2: PageMine's normalized execution time as
// the thread count grows from 1 to 32 — the U-shaped curve that
// motivates SAT. The paper's curve falls until ~4 threads and rises
// substantially beyond 6.
type Fig02 struct {
	Curve Curve
}

// RunFig02 executes the experiment.
func RunFig02(o Options) Fig02 {
	return Fig02{Curve: sweep(o, "pagemine")}
}

// String renders the figure.
func (f Fig02) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: PageMine execution time vs thread count\n")
	formatCurve(&b, f.Curve)
	return b.String()
}

// Fig04 reproduces Figure 4: ED's normalized execution time (a) and
// bus utilization (b) versus thread count. The paper's time falls
// until 8 threads and is flat after; utilization climbs linearly to
// 100% at ~8 threads.
type Fig04 struct {
	Curve Curve
}

// RunFig04 executes the experiment.
func RunFig04(o Options) Fig04 {
	return Fig04{Curve: sweep(o, "ed")}
}

// String renders the figure.
func (f Fig04) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: ED execution time (a) and bus utilization (b) vs thread count\n")
	formatCurve(&b, f.Curve)
	fmt.Fprintf(&b, "  bus saturates (>=95%%) at %d threads\n", f.Curve.SaturationThreads(0.95))
	return b.String()
}

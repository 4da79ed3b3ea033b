// Package experiments reproduces every table and figure of the
// paper's evaluation. Each Fig* function runs the simulations behind
// one figure and returns a printable result whose rows/series mirror
// what the paper plots; cmd/fdtreport renders them all.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured
// numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Cfg is the simulated machine (Table 1 by default).
	Cfg machine.Config
	// SweepThreads are the static thread counts swept for baseline
	// curves and the oracle. Defaults to 1..cores.
	SweepThreads []int
	// Mode selects exact or sampled execution for every run the
	// experiment performs (zero value = exact; see core.Mode).
	Mode core.Mode
	// Progress, when non-nil, receives one event per completed
	// simulated run (sweep points and policy placements). It is the
	// injection point that decouples experiments from "one process,
	// one report": cmd/fdtreport leaves it nil and prints summaries,
	// the fdtd daemon injects a sink that forwards into each job's SSE
	// stream. Sweep points complete on worker-pool goroutines, so the
	// sink must be safe for concurrent use; Index orders events.
	Progress ProgressFunc
	// Power, when non-nil, runs every policy placement and sweep
	// point under a power budget on Cfg's P-state ladder (the
	// fdtsweep/fdtd budget plumbing). nil with a trivial ladder is
	// the PR 9 path, byte-identical results and cache keys.
	Power *core.PowerParams
	// Runs memoizes every run the experiment performs (nil = the
	// core package default). Experiments sharing one value share
	// their baselines; fdtreport and each fdtd job pass the value
	// whose counters they report.
	Runs *core.Runs
}

// spec describes one run of a workload under ctl on the options'
// machine, in their mode and under their power budget; wkey keys it in
// the run cache.
func (o Options) spec(wkey string, f core.Factory, ctl core.Control) core.RunSpec {
	return core.RunSpec{Cfg: o.Cfg, Workload: wkey, Factory: f, Control: ctl, Mode: o.Mode, Power: o.Power}
}

// run executes (or recalls) a registered workload under ctl.
func (o Options) run(name string, ctl core.Control) core.RunResult {
	return o.spec(name, factory(name), ctl).Run(o.Runs)
}

// ProgressFunc receives experiment progress events. Implementations
// must be safe for concurrent use.
type ProgressFunc func(ProgressEvent)

// ProgressEvent describes one completed simulated run inside an
// experiment or sweep.
type ProgressEvent struct {
	// Workload names the run's workload; Policy its resolved policy
	// label ("static-7", "SAT+BAT", ...).
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	// Threads is the static thread count of a sweep point; 0 for
	// policy placements (the policy chose its own count).
	Threads int `json:"threads,omitempty"`
	// Cycles is the run's simulated execution time.
	Cycles uint64 `json:"cycles"`
	// Index and Total place the event inside its batch: sweep points
	// report their position in the sweep, policy placements their
	// position in the policy list.
	Index int `json:"index"`
	Total int `json:"total"`
}

// emit forwards an event to the configured sink, if any.
func (o Options) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// DefaultOptions returns the paper's setup: the Table-1 machine and a
// full 1..32 sweep.
func DefaultOptions() Options {
	return Options{Cfg: machine.DefaultConfig()}
}

func (o Options) threads() []int {
	if len(o.SweepThreads) > 0 {
		return o.SweepThreads
	}
	out := make([]int, o.Cfg.Mem.Cores)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// factory resolves a registered workload into a core.Factory.
func factory(name string) core.Factory {
	info, ok := workloads.ByName(name)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown workload %q", name))
	}
	return func(m *machine.Machine) core.Workload { return info.Factory(m) }
}

// SweepPoint is one point of a baseline curve.
type SweepPoint struct {
	Threads  int
	Cycles   uint64
	NormTime float64 // normalized to the sweep's first point
	BusUtil  float64 // fraction of the run the data bus was busy
	Power    float64 // average active cores
}

// Curve is a swept baseline plus the thread counts that minimize it.
type Curve struct {
	Workload   string
	Points     []SweepPoint
	MinThreads int
	MinCycles  uint64
}

// runNamed executes (or recalls) a registered workload under a policy
// through the options' run cache, keyed by the workload name.
func runNamed(o Options, name string, pol core.Policy) core.RunResult {
	r := o.run(name, core.Control{Policy: pol})
	o.emit(ProgressEvent{Workload: name, Policy: r.Policy, Cycles: r.TotalCycles, Total: 1})
	return r
}

// sweep produces a Curve for a workload. Sweep points are simulated in
// parallel and memoized under the workload name, so figures sharing a
// baseline (Fig 8's panels reappear inside Fig 15's oracle) simulate
// each point once per run cache. Each completed point is reported to the
// Options' progress sink from its worker goroutine.
func sweep(o Options, name string) Curve {
	ts := o.threads()
	return CurveOf(name, ts, sweepRuns(o, name, ts))
}

// CurveOf tabulates runs at thread counts ts as a curve normalized to
// its first point, with its minimum. Mutation tests build their curves
// with it too: their deliberately broken machines must never flow
// through the keyed run cache.
func CurveOf(name string, ts []int, runs []core.RunResult) Curve {
	if len(ts) == 0 || len(runs) != len(ts) {
		panic("experiments: threads and runs must be non-empty and equal length")
	}
	c := Curve{Workload: name}
	minIdx := 0
	for i, r := range runs {
		c.Points = append(c.Points, SweepPoint{
			Threads:  ts[i],
			Cycles:   r.TotalCycles,
			NormTime: float64(r.TotalCycles) / float64(runs[0].TotalCycles),
			BusUtil:  machine.BusUtilization(r.BusBusyCycles, r.TotalCycles),
			Power:    r.AvgActiveCores,
		})
		if r.TotalCycles < runs[minIdx].TotalCycles {
			minIdx = i
		}
	}
	c.MinThreads, c.MinCycles = ts[minIdx], runs[minIdx].TotalCycles
	return c
}

// SaturationThreads reports the fewest swept threads whose bus
// utilization reached util, or 0 if it never does.
func (c Curve) SaturationThreads(util float64) int {
	for _, p := range c.Points {
		if p.BusUtil >= util {
			return p.Threads
		}
	}
	return 0
}

// sweepRuns is core.Sweep with per-point progress reporting.
func sweepRuns(o Options, name string, ts []int) []core.RunResult {
	return core.Sweep(o.Runs, o.spec(name, factory(name), core.Control{}), ts, func(i int, r core.RunResult) {
		o.emit(ProgressEvent{
			Workload: name, Policy: r.Policy, Threads: ts[i],
			Cycles: r.TotalCycles, Index: i, Total: len(ts),
		})
	})
}

// PolicyPoint is where a feedback policy lands on a curve.
type PolicyPoint struct {
	Policy     string
	Run        core.RunResult
	NormTime   float64 // vs the curve's 1-thread base
	OverMinPct float64 // percent above the curve's minimum
}

func policyPoint(o Options, name string, pol core.Policy, c Curve) PolicyPoint {
	r := runNamed(o, name, pol)
	base := c.Points[0].Cycles
	return PolicyPoint{
		Policy:     pol.Name(),
		Run:        r,
		NormTime:   float64(r.TotalCycles) / float64(base),
		OverMinPct: 100 * (float64(r.TotalCycles)/float64(c.MinCycles) - 1),
	}
}

// formatCurve renders a curve (and optional policy points) as the
// text analogue of the paper's figure panels.
func formatCurve(b *strings.Builder, c Curve, pts ...PolicyPoint) {
	fmt.Fprintf(b, "  %-10s %8s %10s %9s %8s\n", c.Workload, "threads", "cycles", "norm", "bus")
	for _, p := range c.Points {
		marker := ""
		if p.Threads == c.MinThreads {
			marker = "  <- min"
		}
		fmt.Fprintf(b, "  %-10s %8d %10d %9.3f %7.1f%%%s\n",
			"", p.Threads, p.Cycles, p.NormTime, 100*p.BusUtil, marker)
	}
	for _, pp := range pts {
		fmt.Fprintf(b, "  %-10s %s -> %s, norm %.3f (%.1f%% above min), power %.2f\n",
			"", pp.Policy, threadsLabel(pp.Run), pp.NormTime, pp.OverMinPct, pp.Run.AvgActiveCores)
	}
}

// chosenThreads summarizes a run's decision (single-kernel runs).
func chosenThreads(r core.RunResult) int {
	if len(r.Kernels) == 0 {
		return 0
	}
	return r.Kernels[0].Decision.Threads
}

// threadsLabel renders per-kernel decisions ("7 threads" or
// "gen=32, boxmuller=7 threads").
func threadsLabel(r core.RunResult) string {
	if len(r.Kernels) == 1 {
		return fmt.Sprintf("%d thread(s)", r.Kernels[0].Decision.Threads)
	}
	parts := make([]string, len(r.Kernels))
	for i, k := range r.Kernels {
		parts[i] = fmt.Sprintf("%s=%d", k.Kernel, k.Decision.Threads)
	}
	return strings.Join(parts, ", ") + " threads"
}

// Command fdtsim runs one workload on the simulated 32-core CMP under
// one threading policy and prints a report: execution time, average
// active cores (the paper's power metric), per-kernel FDT decisions
// and the verification verdict.
//
// Usage:
//
//	fdtsim -workload pagemine -policy sat+bat
//	fdtsim -workload ed -policy static -threads 32
//	fdtsim -workload convert -policy bat -bandwidth 0.5
//	fdtsim -workload ed -policy bat -trace ed.trace.json
//	fdtsim -workload isort -check
//	fdtsim -workload ep -policy hillclimb
//	fdtsim -workload phaseshift -policy adaptive
//	fdtsim -workload ed -sampled             # steady-state fast-forward
//	fdtsim -list
//
// Sampled mode (-sampled, tuned by -sample-tol and -sample-window)
// extrapolates through steady-state kernel regions; see DESIGN.md
// Section 11. Invariant checking (-check) and tracing need every
// cycle simulated, so they force exact execution with a note.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fdt/internal/cliflags"
	"fdt/internal/core"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/trace"
	"fdt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag errors and unknown inputs
// return 2, simulation-level failures (verification, violated
// invariants, unwritable outputs) return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "pagemine", "workload name (-corun overrides it; see -list)")
		policy    = fs.String("policy", "sat+bat", "threading policy (see -list)")
		threads   = fs.Int("threads", 0, "thread count for -policy static (0 = all cores)")
		verify    = fs.Bool("verify", true, "verify the workload's computed results")
		list      = fs.Bool("list", false, "list workloads and exit")
		dumpCtrs  = fs.Bool("counters", false, "dump the machine's counter set")
		sparkline = fs.Bool("sparkline", false, "sample the run and print bus/active-core sparklines")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		check     = fs.Bool("check", false, "arm the runtime invariant checker (conservation, queueing, coherence, controller equations)")
	)
	fl := cliflags.Register(fs, cliflags.Machine|cliflags.Power|cliflags.Sampled|cliflags.Probe|cliflags.Corun)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rs, err := fl.Spec()
	if err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}

	if *list {
		cliflags.PrintList(stdout)
		return 0
	}

	corun := fl.Pair != nil
	var info workloads.Info
	if !corun {
		var ok bool
		info, ok = workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "fdtsim: unknown workload %q (try -list)\n", *workload)
			return 2
		}
	}
	rs.Control, err = fl.Control(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}
	if s, ok := rs.Control.Policy.(core.Static); ok && s.N == 0 {
		rs.Control.Policy = core.Static{N: *threads}
	}
	// Keep every built workload instance for -verify (a co-run
	// instantiates its teams serially).
	var built []core.Workload
	keep := func(f core.Factory) core.Factory {
		return func(mm *machine.Machine) core.Workload {
			w := f(mm)
			built = append(built, w)
			return w
		}
	}
	if corun {
		rs = fl.CorunSpec(rs)
		for i := range rs.Teams {
			rs.Teams[i].Factory = keep(rs.Teams[i].Factory)
		}
	} else {
		rs.Workload, rs.Factory = info.Name, keep(info.Factory)
	}
	rs.Trace, rs.Check = *traceOut != "", *check
	if err := rs.Validate(); err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}
	if note := rs.ExactNote(); note != "" {
		fmt.Fprintln(stdout, "note:", note)
		rs.Mode = core.ExactMode()
	}

	// The machine is built here so observers (sparklines, tracing,
	// invariants, counter dumps) can attach before the run; one run
	// per process has nothing to memoize.
	m := machine.MustNew(rs.Cfg)
	var (
		samples *machine.SampleLog
		tr      *trace.Tracer
		ck      *invariant.Checker
	)
	if *sparkline {
		samples = m.StartSampler(0)
	}
	if *traceOut != "" {
		tr = trace.New(1<<19, trace.CatMem|trace.CatSync|trace.CatCtl)
		m.AttachTracer(tr)
	}
	if *check {
		ck = invariant.New()
		m.AttachChecker(ck)
	}
	res := rs.RunOn(m)
	sampled := res.Sampled != nil
	if corun {
		sampled = reportCorun(stdout, res, fl, rs.Teams[0].Control)
	} else {
		report(stdout, res, info, fl, rs)
		if tr != nil {
			meta := map[string]string{
				"workload":     res.Workload,
				"policy":       res.Policy,
				"cores":        fmt.Sprintf("%d", fl.Cores),
				"bandwidth":    fmt.Sprintf("%g", fl.Bandwidth),
				"total_cycles": fmt.Sprintf("%d", res.TotalCycles),
			}
			if err := trace.WriteChromeFile(*traceOut, tr, meta); err != nil {
				fmt.Fprintln(stderr, "fdtsim:", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace      %d events (%d dropped) -> %s\n", tr.Len(), tr.Dropped(), *traceOut)
		}
	}

	if *dumpCtrs {
		fmt.Fprintf(stdout, "counters   %s\n", m.Ctrs)
	}
	if samples != nil {
		fmt.Fprintln(stdout, samples)
	}
	if ck != nil {
		fmt.Fprintf(stdout, "invariants %s\n", ck.Report())
		if err := ck.Err(); err != nil {
			fmt.Fprintln(stderr, "fdtsim:", err)
			return 1
		}
	}
	if !*verify {
		return 0
	}
	if sampled {
		// Fast-forwarded iterations never execute their host-side
		// computation, so the workload's arrays are incomplete by
		// construction — result verification only means something on
		// an exact run.
		fmt.Fprintln(stdout, "verify     skipped (sampled run: extrapolated iterations compute no results)")
		return 0
	}
	for _, w := range built {
		label := ""
		if corun {
			label = w.Name() + " "
		}
		v, ok := w.(workloads.Verifier)
		if !ok {
			fmt.Fprintf(stdout, "verify     %s(no verifier)\n", label)
			continue
		}
		if err := v.Verify(); err != nil {
			fmt.Fprintf(stdout, "verify     %sFAIL: %v\n", label, err)
			return 1
		}
		fmt.Fprintf(stdout, "verify     %sok\n", label)
	}
	return 0
}

// report prints one run's timing, power and per-kernel decisions.
func report(stdout io.Writer, res core.RunResult, info workloads.Info, fl *cliflags.Flags, rs core.RunSpec) {
	fmt.Fprintf(stdout, "workload   %s (%s)\n", res.Workload, info.Class)
	fmt.Fprintf(stdout, "policy     %s\n", res.Policy)
	if line := fl.PowerLine(rs); line != "" {
		fmt.Fprintf(stdout, "machine    %d cores, %.2gx bandwidth, %s\n", fl.Cores, fl.Bandwidth, line)
	} else {
		fmt.Fprintf(stdout, "machine    %d cores, %.2gx bandwidth\n", fl.Cores, fl.Bandwidth)
	}
	fmt.Fprintf(stdout, "exec time  %d cycles\n", res.TotalCycles)
	fmt.Fprintf(stdout, "power      %.2f avg active cores\n", res.AvgActiveCores)
	if e := res.Energy; e != nil {
		fmt.Fprintf(stdout, "energy     %.0f core-cycles (%.2f avg chip power, table-driven)\n", e.Total, e.AvgPower)
	}
	fmt.Fprintf(stdout, "bus busy   %d cycles (%.1f%% of run)\n",
		res.BusBusyCycles, 100*float64(res.BusBusyCycles)/float64(res.TotalCycles))
	fmt.Fprintf(stdout, "avgthreads %.1f\n", res.AvgThreads())
	for _, k := range res.Kernels {
		d := k.Decision
		freq := ""
		if d.Freq != "" {
			freq = " freq=" + d.Freq
		}
		fmt.Fprintf(stdout, "kernel %-22s threads=%-3d%s pcs=%-3d pbw=%-3d csfrac=%.3f%% bu1=%.2f%% train=%d iters (%d cyc) total=%d cyc\n",
			k.Kernel, d.Threads, freq, d.PCS, d.PBW, 100*d.CSFraction, 100*d.BusUtil1, k.TrainIters, k.TrainCycles, k.Cycles)
	}
	if s := res.Sampled; s != nil {
		fmt.Fprintf(stdout, "sampled    %d detailed + %d skipped iters (%.1f%% skipped), %d fast-forwards, %d re-entries, %d cycles extrapolated\n",
			s.DetailedIters, s.SkippedIters, 100*s.SkippedFrac(), s.FastForwards, s.Reentries, s.SkippedCycles)
	}
}

// reportCorun prints a co-scheduled pair's makespan plus a per-tenant
// report, and reports whether any tenant ran sampled.
func reportCorun(stdout io.Writer, res core.RunResult, fl *cliflags.Flags, ctl core.Control) (sampled bool) {
	fmt.Fprintf(stdout, "corun      %s + %s (mapping %s)\n", fl.Pair[0].Name, fl.Pair[1].Name, res.Mapping)
	fmt.Fprintf(stdout, "policy     %s\n", ctl.Name())
	fmt.Fprintf(stdout, "machine    %d cores\n", fl.Cores)
	fmt.Fprintf(stdout, "makespan   %d cycles\n", res.TotalCycles)
	fmt.Fprintf(stdout, "power      %.2f avg active cores (whole machine)\n", res.AvgActiveCores)
	fmt.Fprintf(stdout, "bus busy   %d cycles (%.1f%% of makespan)\n",
		res.BusBusyCycles, 100*float64(res.BusBusyCycles)/float64(res.TotalCycles))
	for _, t := range res.Teams {
		fmt.Fprintf(stdout, "team %-14s time=%-10d power=%-6.2f avgthreads=%-5.1f bus share=%.1f%%\n",
			t.Team, t.TotalCycles, t.AvgActiveCores, t.AvgThreads(), 100*t.BusShare)
		for _, k := range t.Kernels {
			d := k.Decision
			fmt.Fprintf(stdout, "  kernel %-20s threads=%-3d pcs=%-3d pbw=%-3d csfrac=%.3f%% bu1=%.2f%% train=%d iters (%d cyc) total=%d cyc\n",
				k.Kernel, d.Threads, d.PCS, d.PBW, 100*d.CSFraction, 100*d.BusUtil1, k.TrainIters, k.TrainCycles, k.Cycles)
		}
		sampled = sampled || t.Sampled != nil
	}
	return sampled
}

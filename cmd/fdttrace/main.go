// Command fdttrace runs one registered workload on the simulated CMP
// under any threading policy with the trace subsystem armed, and
// writes the captured trace out: Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and, optionally, a plain-text
// per-resource utilization timeline.
//
// Usage:
//
//	fdttrace -workload phaseshift -policy adaptive
//	fdttrace -workload pagemine -policy sat+bat -o pagemine.trace.json
//	fdttrace -workload ed -policy static -threads 8 -timeline ed.timeline.txt
//	fdttrace -workload convert -policy bat -events all -buf 1048576
//	fdttrace -workload isort -check
//	fdttrace -list
//
// The exported JSON has one track per core, the off-chip bus, each
// DRAM bank, plus the controller-decision track; open it in
// https://ui.perfetto.dev. Ring-buffer overflow is reported on stderr
// and recorded in the trace metadata (events_dropped) — a truncated
// trace always says so.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
// return 2, write failures and violated invariants return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "phaseshift", "workload name (-corun overrides it; see -list)")
		policy   = fs.String("policy", "adaptive", "threading policy (see fdtsim -list)")
		threads  = fs.Int("threads", 0, "thread count for -policy static (0 = all cores)")
		out      = fs.String("o", "trace.json", "Chrome trace-event JSON output path")
		timeline = fs.String("timeline", "", "also write a plain-text utilization timeline to this path")
		interval = fs.Uint64("interval", 10000, "timeline bin width in cycles")
		events   = fs.String("events", "mem,sync,ctl", "traced categories, comma-separated: sim, mem, sync, ctl (or all)")
		bufCap   = fs.Int("buf", 1<<19, "trace ring-buffer capacity in events (newest kept on overflow)")
		list     = fs.Bool("list", false, "list workloads and exit")
		check    = fs.Bool("check", false, "arm the runtime invariant checker (conservation, queueing, coherence, controller equations)")
	)
	fl := cliflags.Register(fs, cliflags.Machine|cliflags.Power|cliflags.Corun)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rs, err := fl.Spec()
	if err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
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
			fmt.Fprintf(stderr, "fdttrace: unknown workload %q (try -list)\n", *workload)
			return 2
		}
	}
	mask, err := parseCategories(*events)
	if err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 2
	}
	rs.Control, err = fl.Control(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 2
	}
	if s, ok := rs.Control.Policy.(core.Static); ok && s.N == 0 {
		rs.Control.Policy = core.Static{N: *threads}
	}
	ctlName := rs.Control.Name()
	if corun {
		rs = fl.CorunSpec(rs)
	} else {
		rs.Factory = info.Factory
	}
	rs.Trace, rs.Check = true, *check
	if err := rs.Validate(); err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 2
	}

	m := machine.MustNew(rs.Cfg)
	tr := trace.New(*bufCap, mask)
	m.AttachTracer(tr)
	var ck *invariant.Checker
	if *check {
		ck = invariant.New()
		m.AttachChecker(ck)
	}
	res := rs.RunOn(m)
	label := res.Workload
	meta := map[string]string{
		"cores":        fmt.Sprintf("%d", fl.Cores),
		"bandwidth":    fmt.Sprintf("%g", fl.Bandwidth),
		"policy":       ctlName,
		"total_cycles": fmt.Sprintf("%d", res.TotalCycles),
	}
	if rs.Power != nil {
		meta["budget"] = fmt.Sprintf("%g", fl.Budget)
		meta["ladder"] = rs.Cfg.Freq.Key()
	}
	if corun {
		label = fl.Pair[0].Name + "+" + fl.Pair[1].Name
		meta["corun"] = label
		meta["mapping"] = res.Mapping
	} else {
		meta["workload"] = label
	}
	if err := trace.WriteChromeFile(*out, tr, meta); err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 1
	}
	if *timeline != "" {
		if err := trace.WriteTimelineFile(*timeline, tr, *interval); err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "workload   %s under %s: %d cycles, %.2f avg active cores\n",
		label, ctlName, res.TotalCycles, res.AvgActiveCores)
	if res.Energy != nil {
		fmt.Fprintf(stdout, "energy     %.0f core-cycles (%.2f avg chip power, table-driven)\n",
			res.Energy.Total, res.Energy.AvgPower)
	}
	runs := []core.RunResult{res}
	for _, t := range res.Teams {
		runs = append(runs, t.RunResult)
	}
	for _, r := range runs {
		for _, k := range r.Kernels {
			if k.Retrains > 0 {
				fmt.Fprintf(stdout, "kernel     %s: %d phases (%d retrains)\n", k.Kernel, len(k.Phases), k.Retrains)
			}
		}
	}
	fmt.Fprintf(stdout, "trace      %d events captured (%d emitted, %d dropped; categories %s) -> %s\n",
		tr.Len(), tr.Emitted(), tr.Dropped(), mask, *out)
	if *timeline != "" {
		fmt.Fprintf(stdout, "timeline   interval %d cycles -> %s\n", *interval, *timeline)
	}
	if tr.Dropped() > 0 {
		fmt.Fprintf(stderr, "fdttrace: ring buffer overflowed: %d events dropped (oldest first); raise -buf or narrow -events\n",
			tr.Dropped())
	}
	if *check {
		fmt.Fprintf(stdout, "invariants %s\n", ck.Report())
		if err := ck.Err(); err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 1
		}
	}
	return 0
}

// parseCategories resolves the -events flag to a category mask.
func parseCategories(s string) (trace.Category, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return trace.CatAll, nil
	}
	var mask trace.Category
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "sim":
			mask |= trace.CatSim
		case "mem":
			mask |= trace.CatMem
		case "sync":
			mask |= trace.CatSync
		case "ctl":
			mask |= trace.CatCtl
		case "":
		default:
			return 0, fmt.Errorf("unknown event category %q (want sim, mem, sync, ctl or all)", part)
		}
	}
	if mask == 0 {
		return 0, fmt.Errorf("no event categories selected")
	}
	return mask, nil
}

// Command fdtsweep sweeps a workload across static thread counts and
// prints the baseline curve of the paper's per-workload figures —
// normalized execution time (and bus utilization) versus thread
// count — plus the point each feedback policy picks.
//
// Usage:
//
//	fdtsweep -workload ed
//	fdtsweep -workload pagemine -threads 1,2,4,8,16,32
//	fdtsweep -workload convert -bandwidth 2
//	fdtsweep -workload ed -parallel 1   # legacy serial (0 = GOMAXPROCS)
//	fdtsweep -workload ed -json sweep.json   # machine-readable output ("-" = stdout)
//	fdtsweep -workload ed -sampled           # steady-state fast-forward
//	fdtsweep -workload ed -sampled -verify   # sampled vs exact error table
//	fdtsweep -workload ed -cache-dir d/      # back the run cache with fdtd's disk store
//
// Sweep points are independent simulations; they fan out over a host
// worker pool and land in one run cache, backed by the disk store
// under -cache-dir.
//
// With -sampled the sweep executes in sampled mode (DESIGN.md
// Section 11); adding -verify runs every point in both modes and
// prints a per-point cycle/power relative-error table with geometric
// means — the accuracy audit behind BENCH_PR6.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fdt/internal/cliflags"
	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/runner"
	"fdt/internal/stats"
	"fdt/internal/store"
	"fdt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag errors and invalid
// combinations return 2, unwritable outputs and store failures 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "ed", "workload name (with -corun, the mapping dimension is swept instead of thread counts)")
		threadStr = fs.String("threads", "", "comma-separated static thread counts (default 1..cores)")
		policies  = fs.String("policies", "sat,bat,sat+bat", "feedback policies to place on the curve (see fdtsim -list)")
		parallel  = fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cacheDir  = fs.String("cache-dir", "", "disk run-store directory shared with fdtd (warm runs are loaded, new runs persisted)")
		jsonPath  = fs.String("json", "", "write the sweep and policy runs as JSON to this file (\"-\" for stdout)")
		verifyAcc = fs.Bool("verify", false, "with -sampled: also run every point exactly and print the error table")
	)
	fl := cliflags.Register(fs, cliflags.Machine|cliflags.Power|cliflags.Sampled|cliflags.Probe|cliflags.Corun)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rs, err := fl.Spec()
	if err != nil {
		fmt.Fprintln(stderr, "fdtsweep:", err)
		return 2
	}

	runner.SetWorkers(*parallel)
	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir, core.RunStoreSchema); err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 1
		}
	}
	runs := core.NewRuns(0, st)
	if fl.Pair != nil {
		rs.Control = core.Control{Policy: core.Combined{}}
		out, err := runCorunSweep(runs, fl.CorunSpec(rs), fl.Mappings, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 2
		}
		return finish(runs, out, *jsonPath, stdout, stderr)
	}

	info, ok := workloads.ByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "fdtsweep: unknown workload %q\n", *workload)
		return 2
	}
	rs.Workload, rs.Factory = info.Name, info.Factory
	counts, err := parseThreads(*threadStr, fl.Cores)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsweep:", err)
		return 2
	}
	// Every placement is validated before the sweep simulates anything.
	rs.Control = core.Control{Policy: core.Static{}}
	if err := rs.Validate(); err != nil {
		fmt.Fprintln(stderr, "fdtsweep:", err)
		return 2
	}
	var placements []core.RunSpec
	for _, pname := range strings.Split(*policies, ",") {
		if strings.TrimSpace(pname) == "" {
			continue
		}
		p := rs
		if p.Control, err = fl.Control(pname); err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 2
		}
		if err := p.Validate(); err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 2
		}
		if note := p.ExactNote(); note != "" {
			fmt.Fprintln(stdout, "# note:", note)
		}
		placements = append(placements, p)
	}

	sweep := core.Sweep(runs, rs, counts, nil)
	base := sweep[0].TotalCycles // normalize to the 1-thread run
	fmt.Fprintf(stdout, "# %s on %d cores, %.2gx bandwidth (time normalized to %d threads)\n",
		info.Name, fl.Cores, fl.Bandwidth, counts[0])
	if line := fl.PowerLine(rs); line != "" {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	fmt.Fprintf(stdout, "%8s %12s %10s %10s %10s\n", "threads", "cycles", "norm.time", "bus.util", "power")
	times := make([]uint64, len(sweep))
	for i, r := range sweep {
		times[i] = r.TotalCycles
		fmt.Fprintf(stdout, "%8d %12d %10.3f %9.1f%% %10.2f\n",
			counts[i], r.TotalCycles,
			float64(r.TotalCycles)/float64(base),
			100*float64(r.BusBusyCycles)/float64(r.TotalCycles),
			r.AvgActiveCores)
	}
	bestIdx, bestCycles := stats.ArgMinUint(times)
	fmt.Fprintf(stdout, "# minimum at %d threads (%d cycles)\n", counts[bestIdx], bestCycles)

	out := sweepJSON{SweepJobResult: experiments.SweepJobResult{
		Workload:   info.Name,
		Cores:      fl.Cores,
		Threads:    counts,
		Sweep:      sweep,
		MinThreads: counts[bestIdx],
	}, Bandwidth: fl.Bandwidth}

	if rs.Mode.Sampled && *verifyAcc {
		ex := rs
		ex.Mode = core.ExactMode()
		exact := core.Sweep(runs, ex, counts, nil)
		fmt.Fprintf(stdout, "# sampled-vs-exact verification\n")
		fmt.Fprintf(stdout, "%8s %12s %12s %9s %8s %8s %9s %8s\n",
			"threads", "exact.cyc", "sampled.cyc", "cyc.err", "exact.pw", "smpl.pw", "pw.err", "skipped")
		var cycErrs, pwErrs []float64
		var points []verifyPoint
		for i, ex := range exact {
			sp := sweep[i]
			cycErr := relErr(float64(sp.TotalCycles), float64(ex.TotalCycles))
			pwErr := relErr(sp.AvgActiveCores, ex.AvgActiveCores)
			cycErrs = append(cycErrs, 1+math.Abs(cycErr))
			pwErrs = append(pwErrs, 1+math.Abs(pwErr))
			skipped := 0.0
			if sp.Sampled != nil {
				skipped = sp.Sampled.SkippedFrac()
			}
			fmt.Fprintf(stdout, "%8d %12d %12d %8.2f%% %8.2f %8.2f %8.2f%% %7.1f%%\n",
				counts[i], ex.TotalCycles, sp.TotalCycles, 100*cycErr,
				ex.AvgActiveCores, sp.AvgActiveCores, 100*pwErr, 100*skipped)
			points = append(points, verifyPoint{
				Threads: counts[i], ExactCycles: ex.TotalCycles, SampledCycles: sp.TotalCycles,
				CycleErr: cycErr, ExactPower: ex.AvgActiveCores, SampledPower: sp.AvgActiveCores,
				PowerErr: pwErr, SkippedFrac: skipped,
			})
		}
		gCyc := stats.Gmean(cycErrs) - 1
		gPw := stats.Gmean(pwErrs) - 1
		fmt.Fprintf(stdout, "# gmean |cycle err| %.3f%%, gmean |power err| %.3f%%\n", 100*gCyc, 100*gPw)
		out.Verify = &verifyJSON{Points: points, GmeanCycleErr: gCyc, GmeanPowerErr: gPw}
	}

	for _, p := range placements {
		r := p.Run(runs)
		out.Policies = append(out.Policies, r)
		fmt.Fprintf(stdout, "# %-8s -> ", r.Policy)
		for _, k := range r.Kernels {
			fmt.Fprintf(stdout, "[%s threads=%d", k.Kernel, k.Decision.Threads)
			if k.Decision.Freq != "" {
				fmt.Fprintf(stdout, " freq=%s", k.Decision.Freq)
			}
			fmt.Fprintf(stdout, " pcs=%d pbw=%d csfrac=%.2f%% bu1=%.2f%%] ",
				k.Decision.PCS, k.Decision.PBW,
				100*k.Decision.CSFraction, 100*k.Decision.BusUtil1)
		}
		fmt.Fprintf(stdout, "time=%.3f power=%.2f", float64(r.TotalCycles)/float64(base), r.AvgActiveCores)
		if r.Energy != nil {
			fmt.Fprintf(stdout, " energy=%.0f", r.Energy.Total)
		}
		fmt.Fprintln(stdout)
	}

	return finish(runs, out, *jsonPath, stdout, stderr)
}

// finish writes the JSON output, when asked for, and prints the worker
// count and the run-cache and store accounting.
func finish(runs *core.Runs, out any, jsonPath string, stdout, stderr io.Writer) int {
	if jsonPath != "" {
		if err := writeJSON(jsonPath, out, stdout); err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 1
		}
	}
	hits, misses := runs.Stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(stdout, "# [%d workers; run cache: %d hits / %d misses (%.1f%% hit rate)]\n",
		runner.Workers(), hits, misses, rate)
	if st := runs.Store(); st != nil {
		ss := st.Stats()
		fmt.Fprintf(stdout, "# [run store: %d loads / %d saves]\n", ss.Hits, ss.Puts)
	}
	return 0
}

// runCorunSweep is the -corun mode: instead of the thread dimension,
// sweep the thread-to-core mapping dimension for the co-scheduled
// pair in co. Every mapping row reports each tenant solo on its
// partition (the interference-free control) against the co-run, under
// combined SAT+BAT controllers. With no mapping named, every mapping
// the machine can host is swept; a named one it cannot host is an
// error.
func runCorunSweep(runs *core.Runs, co core.RunSpec, named []machine.Mapping, stdout io.Writer) (corunSweepJSON, error) {
	if named == nil {
		named = co.Cfg.FeasibleMappings(len(co.Teams))
	}
	a, b := co.Teams[0].Workload, co.Teams[1].Workload
	fmt.Fprintf(stdout, "# corun %s + %s on %d cores under sat+bat (solo runs use the same partition, empty machine)\n",
		a, b, co.Cfg.Mem.Cores)
	fmt.Fprintf(stdout, "%-10s %-10s %12s %12s %9s %8s %8s %9s\n",
		"mapping", "workload", "solo.cyc", "corun.cyc", "slowdown", "thr.solo", "thr.co", "bus.share")
	out := corunSweepJSON{PairA: a, PairB: b, Cores: co.Cfg.Mem.Cores}
	for _, mp := range named {
		co.Mapping = mp
		if err := co.Validate(); err != nil {
			return out, err
		}
		res := co.Run(runs)
		row := corunSweepRow{Mapping: res.Mapping, Makespan: res.TotalCycles, Corun: res}
		for i, r := range experiments.InterferenceCell(runs, co) {
			fmt.Fprintf(stdout, "%-10s %-10s %12d %12d %8.1f%% %8.1f %8.1f %8.1f%%\n",
				r.Mapping, r.Workload, r.SoloCycles, r.CorunCycles, r.SlowdownPct,
				r.SoloThreads, r.CorunThreads, 100*r.CorunBusShare)
			row.Solo = append(row.Solo, co.Solo(i).Run(runs).Teams[i])
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// corunSweepJSON is the -corun -json payload: one row per mapping
// with the co-run result and each tenant's solo control.
type corunSweepJSON struct {
	PairA string          `json:"pair_a"`
	PairB string          `json:"pair_b"`
	Cores int             `json:"cores"`
	Rows  []corunSweepRow `json:"rows"`
}

type corunSweepRow struct {
	Mapping  string            `json:"mapping"`
	Makespan uint64            `json:"makespan"`
	Corun    core.RunResult    `json:"corun"`
	Solo     []core.TeamResult `json:"solo"`
}

// sweepJSON is fdtsweep's machine-readable output: the fdtd sweep
// job's result shape plus the machine's bandwidth and the -verify
// audit.
type sweepJSON struct {
	experiments.SweepJobResult
	Bandwidth float64     `json:"bandwidth"`
	Verify    *verifyJSON `json:"verify,omitempty"`
}

// verifyJSON is the -sampled -verify accuracy audit: per-point
// exact-vs-sampled comparison plus error geometric means.
type verifyJSON struct {
	Points        []verifyPoint `json:"points"`
	GmeanCycleErr float64       `json:"gmean_cycle_err"`
	GmeanPowerErr float64       `json:"gmean_power_err"`
}

type verifyPoint struct {
	Threads       int     `json:"threads"`
	ExactCycles   uint64  `json:"exact_cycles"`
	SampledCycles uint64  `json:"sampled_cycles"`
	CycleErr      float64 `json:"cycle_err"`
	ExactPower    float64 `json:"exact_power"`
	SampledPower  float64 `json:"sampled_power"`
	PowerErr      float64 `json:"power_err"`
	SkippedFrac   float64 `json:"skipped_frac"`
}

// relErr is (got-want)/want, signed.
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / want
}

func writeJSON(path string, v any, stdout io.Writer) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func parseThreads(s string, cores int) ([]int, error) {
	if s == "" {
		out := make([]int, cores)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

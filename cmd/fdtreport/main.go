// Command fdtreport regenerates the paper's evaluation — every table
// and figure — on the simulated machine and prints text renditions.
// With -csv it also writes each figure's series as CSV for plotting,
// and with -json each experiment's data as machine-readable JSON.
//
// Usage:
//
//	fdtreport                 # everything (Fig 15 runs the oracle)
//	fdtreport -only fig14     # one experiment
//	fdtreport -fast           # coarser sweeps for a quick look
//	fdtreport -csv out/       # also write out/fig2.csv, out/fig14.csv, ...
//	fdtreport -json out/      # also write out/fig2.json, out/fig14.json, ...
//	fdtreport -parallel 1     # legacy serial execution (0 = GOMAXPROCS)
//	fdtreport -sampled        # steady-state fast-forward (DESIGN.md Section 11)
//	fdtreport -cache-dir d/   # back the run cache with fdtd's disk store
//
// Independent simulations fan out over a host worker pool and are
// memoized in one run cache for the whole report, so figures sharing
// baseline sweeps (8, 9, 10, 14, 15) simulate each distinct run once;
// the footer reports the worker count, the run-cache hit rate and the
// energy of every run the report simulated.
//
// With -sampled every run executes in sampled mode (-sample-tol and
// -sample-window tune the detector); the per-figure gmean cycle
// error against exact execution is gated at 3% in CI, and `fdtsweep
// -sampled -verify` audits any workload point by point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fdt/internal/cliflags"
	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/runner"
	"fdt/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag errors and unknown
// experiment names return 2, unwritable outputs return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, e := range experiments.Registry(experiments.Options{}) {
		names = append(names, e.Name)
	}
	var (
		only     = fs.String("only", "", "run a single experiment: "+strings.Join(names, ", ")+" (-corun or -mapping restricts, and implies, interference)")
		fast     = fs.Bool("fast", false, "sweep a reduced set of thread counts")
		csvDir   = fs.String("csv", "", "directory to write per-figure CSV files into")
		jsonDir  = fs.String("json", "", "directory to write per-experiment JSON files into")
		parallel = fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = fs.String("cache-dir", "", "disk run-store directory shared with fdtd (warm runs are loaded, new runs persisted)")
	)
	fl := cliflags.Register(fs, cliflags.Power|cliflags.Sampled|cliflags.Corun)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rs, err := fl.Spec()
	if err != nil {
		fmt.Fprintln(stderr, "fdtreport:", err)
		return 2
	}
	// The ladder and budget flow to every model-driven experiment via
	// Options.Power; measurement-driven runners (hill-climbing, hybrid
	// probes) execute the ladder at nominal frequency and simply gain
	// energy accounting. The pareto family pins its own ladder/budget
	// grid regardless.
	o := experiments.Options{Cfg: rs.Cfg, Mode: rs.Mode, Power: rs.Power}
	if *fast {
		o.SweepThreads = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32}
	}
	// The experiment catalogue is shared with the fdtd daemon
	// (experiments.Registry), so a figure regenerated here and one
	// served over HTTP run the same code path and share cache/store
	// entries. Only the interference entry is overridden, to apply the
	// CLI-only -corun / -mapping restrictions (nil keeps the family's
	// defaults). Its co-runs are checked before anything runs: if one
	// cannot run (co-runs do not support a power budget or P-state
	// ladder), asking for the family or restricting it exits 2, and a
	// full run prints the reason as a one-line note in its place.
	restricted := fl.Pair != nil || fl.Mappings != nil
	var pairs [][2]string
	if fl.Pair != nil {
		pairs = [][2]string{{fl.Pair[0].Name, fl.Pair[1].Name}}
	}
	want := strings.ToLower(strings.TrimSpace(*only))
	if want == "" && restricted {
		// A pair or mapping restriction only affects the interference
		// family; don't re-run everything else around it.
		want = "interference"
	}
	interference := func() (string, string, any) {
		f := experiments.RunInterferencePairs(o, pairs, fl.Mappings)
		return f.String(), f.CSV(), f
	}
	if err := experiments.ValidateInterference(o, pairs, fl.Mappings); err != nil {
		if restricted || want == "interference" {
			fmt.Fprintln(stderr, "fdtreport:", err)
			return 2
		}
		interference = func() (string, string, any) {
			return "Co-runner interference: skipped: " + err.Error(), "", nil
		}
	}
	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir, core.RunStoreSchema); err != nil {
			fmt.Fprintln(stderr, "fdtreport:", err)
			return 1
		}
	}
	runs := core.NewRuns(0, st)
	o.Runs = runs
	runners := experiments.Registry(o)
	for i := range runners {
		if runners[i].Name == "interference" {
			runners[i].Run = interference
		}
	}

	runner.SetWorkers(*parallel)
	if st != nil {
		entries, bytes := st.Len()
		fmt.Fprintf(stdout, "[run store %s: %d entries ~%.1f KiB]\n\n",
			st.Dir(), entries, float64(bytes)/1024)
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "fdtreport:", err)
			return 1
		}
	}

	found := false
	for _, r := range runners {
		if want != "" && r.Name != want {
			continue
		}
		found = true
		start := time.Now()
		h0, m0 := runs.Stats()
		_, _, e0 := runs.Usage()
		text, csv, data := r.Run()
		h1, m1 := runs.Stats()
		_, _, e1 := runs.Usage()
		fmt.Fprintln(stdout, text)
		fmt.Fprintf(stdout, "  [%s took %.1fs; run cache: %d hits / %d misses, %d evictions]\n\n",
			r.Name, time.Since(start).Seconds(), h1-h0, m1-m0, e1-e0)
		if *csvDir != "" && csv != "" {
			path := filepath.Join(*csvDir, r.Name+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintln(stderr, "fdtreport:", err)
				return 1
			}
		}
		if *jsonDir != "" && data != nil {
			blob, err := json.MarshalIndent(data, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(*jsonDir, r.Name+".json"), append(blob, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "fdtreport:", err)
				return 1
			}
		}
	}
	if !found {
		fmt.Fprintf(stderr, "fdtreport: unknown experiment %q\n", *only)
		return 2
	}

	hits, misses := runs.Stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	entries, bytes, evictions := runs.Usage()
	fmt.Fprintf(stdout, "[%d workers; run cache: %d hits / %d misses (%.1f%% hit rate), %d entries ~%.1f KiB, %d evictions]\n",
		runner.Workers(), hits, misses, rate, entries, float64(bytes)/1024, evictions)
	fmt.Fprintf(stdout, "[simulated energy: %.4g core-cycle units across all uncached runs]\n", runs.Energy())
	if st != nil {
		ss := st.Stats()
		sEntries, sBytes := st.Len()
		fmt.Fprintf(stdout, "[run store: %d loads / %d saves this run; %d entries ~%.1f KiB on disk]\n",
			ss.Hits, ss.Puts, sEntries, float64(sBytes)/1024)
	}
	return 0
}

// Command fdtbench is the repository's benchmark for the simulator and
// the fdtd daemon. It runs four workloads — an exact thread sweep,
// sampled policy placements, and a cold and a warm daemon — for a
// fixed time each, checks every output against the goldens in
// testdata/, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics: CPU-profile shares by module, service timings,
// store and cache counts, and layer probes).
//
//	bash cmd/fdtbench/run.sh --workload daemon-warm --seed 1 --seconds 25 --trace 0
//	bash cmd/fdtbench/run.sh -seed 1 -o out.json          # all four workloads
//	bash cmd/fdtbench/run.sh -compare 'base-*.json' 'head-*.json'
//	bash cmd/fdtbench/run.sh -update-golden
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// makes the command exit 1. README.md lists every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"fdt/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's result, in the shape of the final line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -o writes and -compare reads.
type report struct {
	Schema    string             `json:"schema"`
	Host      hostInfo           `json:"host"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]outcome `json:"workloads"`
	// HostScale is each workload's factor from measured to
	// reference-host time (calibrate.go); raw = reported / factor.
	HostScale map[string]float64 `json:"host_scale"`
}

const reportSchema = "fdtbench/1"

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed for workload order and request sequences")
	seconds := fs.Float64("seconds", 25, "measured time per workload")
	traceFlag := fs.Int("trace", 0, "1 runs traced: per-layer metrics instead of end-to-end ones")
	outFile := fs.String("o", "", "also write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two report sets: -compare 'base*.json' 'head*.json'")
	update := fs.Bool("update-golden", false, "regenerate testdata/ from this checkout's simulator and daemon")
	child := fs.String("child", "", "internal: run one pass of this workload, or \"probes\"")
	pass := fs.Int("pass", 0, "internal: pass index for -child (-1: set up and exit)")
	cpuprofile := fs.String("cpuprofile", "", "internal: CPU profile path for -child")
	scratch := fs.String("dir", "", "internal: scratch directory for -child probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, *seed, *pass, *cpuprofile, *scratch, stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "fdtbench: %v\n", err)
		return 2
	}
	if *compare {
		return compareMain(filepath.Join(root, "BENCHMARK.json"), fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fdtbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "fdtbench: -trace must be 0 or 1")
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "fdtbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "fdtbench: -seconds must be positive")
		return 2
	}

	e := &env{root: root, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if e.self, err = os.Executable(); err != nil {
		fmt.Fprintf(stderr, "fdtbench: %v\n", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build")
	e.work = filepath.Join(out, "fdtbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "fdtbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	e.fdtd = filepath.Join(out, "bin", "fdtd")
	if needsDaemon(names) || *update {
		build := exec.CommandContext(ctx, "go", "build", "-o", e.fdtd, "./cmd/fdtd")
		build.Dir, build.Stdout, build.Stderr = root, stderr, stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(stderr, "fdtbench: build fdtd: %v\n", err)
			return 1
		}
	}
	if *update {
		if err := updateGoldens(ctx, e, stderr); err != nil {
			fmt.Fprintf(stderr, "fdtbench: update goldens: %v\n", err)
			return 1
		}
		return 0
	}

	if len(names) > 1 {
		perm := order(e.seed, 0, len(names))
		shuffled := make([]string, len(names))
		for i, k := range perm {
			shuffled[i] = names[k]
		}
		names = shuffled
	}
	rep := report{Schema: reportSchema, Host: host(), Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Workloads: map[string]outcome{}, HostScale: map[string]float64{}}
	for _, name := range names {
		o, scale, err := runWorkload(ctx, e, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fdtbench: %s: %v\n", name, err)
			return 1
		}
		rep.Workloads[name] = o
		rep.HostScale[name] = scale
		for _, d := range metricSet(e.trace) {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", name, d.name, o.Metrics[d.name].Value, d.unit)
		}
	}

	if *outFile != "" {
		b, _ := json.MarshalIndent(rep, "", "  ") // plain data
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "fdtbench: %v\n", err)
			return 1
		}
	}
	final := rep.Workloads[names[0]]
	if len(names) > 1 {
		final = combine(rep.Workloads)
	}
	b, _ := json.Marshal(final) // plain data
	fmt.Fprintln(stdout, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

func needsDaemon(names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "daemon-") {
			return true
		}
	}
	return false
}

func metricSet(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return endToEndMetrics
}

// runWorkload measures one workload and turns the measurement into its
// outcome and host scale; traced runs also attribute CPU profiles, run
// the layer probes and write the spans next to the build output.
func runWorkload(ctx context.Context, e *env, name string, stderr io.Writer) (outcome, float64, error) {
	var (
		m   *measurement
		err error
	)
	if w, ok := simWorkloadByName(name); ok {
		m, err = measureSim(ctx, e, w)
	} else if name == "daemon-cold" {
		m, err = measureDaemon(ctx, e, daemonCold())
	} else {
		m, err = measureDaemon(ctx, e, daemonWarm())
	}
	if err != nil {
		return outcome{}, 0, err
	}
	values := endToEnd(m)
	scale := m.hostScale()
	fmt.Fprintf(stderr, "fdtbench: %s: calibration kernel %.1f ms (reference %.0f ms): times scaled by %.3f\n",
		name, 1e3*median(m.cals), 1e3*referenceCalS, scale)
	if e.trace {
		var cpuShares, probes map[string]float64
		if len(m.profiles) > 0 {
			t, err := profileBuckets(m.profiles)
			if err != nil {
				return outcome{}, 0, err
			}
			cpuShares = shares(t)
		}
		c, err := runChild(ctx, e.self, "-child", "probes", "-dir", e.work)
		if err != nil {
			return outcome{}, 0, err
		}
		if err := json.Unmarshal(c.out, &probes); err != nil {
			return outcome{}, 0, fmt.Errorf("probes: %w", err)
		}
		values = perLayer(m, cpuShares, probes)
		path := filepath.Join(filepath.Dir(e.work), "trace-"+name+".json")
		if err := writeChromeTrace(path, m.spans); err != nil {
			return outcome{}, 0, err
		}
		fmt.Fprintf(stderr, "fdtbench: %s: %d spans in %s\n", name, len(m.spans), path)
	}
	for i, f := range m.failures {
		if i == 5 {
			fmt.Fprintf(stderr, "fdtbench: %s: ... %d more failures\n", name, len(m.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "fdtbench: %s: FAIL %s\n", name, f)
	}
	o := outcome{
		Attempted: m.attempted,
		Failed:    min(len(m.failures), m.attempted),
		Metrics:   map[string]metric{},
	}
	o.Correct = len(m.failures) == 0 && m.attempted > 0
	for _, d := range metricSet(e.trace) {
		o.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return o, scale, nil
}

// combine folds several workloads' outcomes into one final line whose
// metric names carry a "workload/" prefix.
func combine(ws map[string]outcome) outcome {
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	for name, o := range ws {
		out.Correct = out.Correct && o.Correct
		out.Attempted += o.Attempted
		out.Failed += o.Failed
		for k, v := range o.Metrics {
			out.Metrics[name+"/"+k] = v
		}
	}
	return out
}

// childMain is the child side of runChild: a sim pass, a set-up-only
// launch (pass -1), or the layer probes (scratch space in dir).
func childMain(name string, seed uint64, pass int, cpuprofile, dir string, stdout, stderr io.Writer) int {
	runner.SetWorkers(hostWorkers)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "fdtbench child %s: %v\n", name, err)
		return 1
	}
	if name == "probes" {
		fmt.Fprintln(stdout, "ready")
		out, err := runProbes(dir)
		if err != nil {
			return fail(err)
		}
		b, _ := json.Marshal(out) // plain data
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	w, ok := simWorkloadByName(name)
	if !ok {
		return fail(errors.New("unknown workload"))
	}
	gold, err := loadSimGoldens()
	if err != nil {
		return fail(err)
	}
	warmUp()
	fmt.Fprintln(stdout, "ready")
	if pass < 0 {
		return 0
	}
	var prof *os.File
	if cpuprofile != "" {
		if prof, err = os.Create(cpuprofile); err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return fail(err)
		}
	}
	rep := runSimPass(w, order(seed, uint64(pass)+1, len(w.calls)), gold, prof != nil)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return fail(err)
		}
	}
	b, _ := json.Marshal(rep) // plain data
	fmt.Fprintln(stdout, string(b))
	return 0
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds cmd/fdtbench/go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "fdtbench", "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (cmd/fdtbench/go.mod) at or above the working directory")
		}
		dir = parent
	}
}

// hostInfo records where a report was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return h
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdt/internal/machine"
)

func TestListWorkloads(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"WORKLOADS", "NAME", "pagemine", "ed", "mtwister",
		"EXTRAS", "busburst", "phaseshift",
		"GAUNTLET", "gauntlet/oscillate", "gauntlet/csdep", "gauntlet/busstorm", "gauntlet/eqclash",
		"breaks: phases flip faster than the monitor interval",
		"COMBINATORS", "corun",
		"POLICIES", "sat+bat", "hillclimb", "hybrid",
		"MAPPINGS", "packed", "scattered", "smt",
		"MODES", "exact", "sampled",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	// The gauntlet members print in their own section, not as extras.
	extras := out.String()[strings.Index(out.String(), "EXTRAS"):strings.Index(out.String(), "GAUNTLET")]
	if strings.Contains(extras, "gauntlet/") {
		t.Error("gauntlet members duplicated in the EXTRAS section")
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-policy", "nosuch"},
		{"-nosuchflag"},
		{"-threads", "notanumber"},
		{"-corun", "nosuch+mg"},
		{"-corun", "pagemine"},
		{"-corun", "pagemine+mg", "-mapping", "nosuch"},
		{"-corun", "pagemine+mg", "-policy", "hillclimb"},
		{"-corun", "pagemine+mg", "-policy", "hybrid"},
		{"-corun", "pagemine+mg", "-mapping", "smt"}, // 1 SMT plane, 2 teams
		{"-probe-iters", "-1"},
		{"-min-gain", "1.5"},
		{"-min-gain", "-0.2"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-freq-ladder", "2000,2000"},
		{"-power-budget", "5", "-policy", "hillclimb"},
		{"-power-budget", "5", "-policy", "hybrid"},
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-freq-ladder", "default", "-corun", "pagemine+mg"},
		{"-cores", "4"},   // not a multiple of the 8 L3 banks
		{"-cores", "128"}, // beyond the directory's 64-core sharer mask
		{"-bandwidth", "0"},
		{"-timeline", "t.txt"}, // a timeline is drawn from a trace
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want exit 2; stderr: %s", args, code, errb.String())
		}
	}
}

// TestTraceBadInvocations checks that a traced run rejects bad trace
// flags and bad run inputs before it writes a trace file.
func TestTraceBadInvocations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	cases := [][]string{
		{"-trace-events", "nosuchcat"},
		{"-trace-events", ""},
		{"-workload", "nosuch"},
		{"-policy", "nosuch", "-workload", "ed"},
		{"-nosuchflag"},
		{"-corun", "nosuch+mg"},
		{"-corun", "pagemine+mg", "-mapping", "nosuch"},
		{"-corun", "pagemine+mg", "-mapping", "smt"}, // 1 SMT plane, 2 teams
		{"-corun", "pagemine+mg", "-policy", "hybrid"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-power-budget", "5", "-policy", "hybrid"},
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-cores", "4"}, // not a multiple of the 8 L3 banks
	}
	for _, args := range cases {
		args = append(args, "-trace", path)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want exit 2; stderr: %s", args, code, errb.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("run(%v) wrote a trace file", args)
		}
	}
}

func TestRunReportAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "pagemine", "-policy", "static", "-threads", "4",
		"-cores", "8", "-check", "-sparkline", "-counters"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"workload   pagemine", "exec time", "power",
		"invariants ok (", "verify     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
}

// TestSparklineObservesOnly: the sampler behind -sparkline must not
// change the run it observes. Its last Advance may move the clock past
// the program's end; the report must still read the end of the run,
// so both invocations print the same report apart from the sparkline
// lines.
func TestSparklineObservesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated runs")
	}
	for _, args := range [][]string{
		{"-workload", "pagemine", "-policy", "static", "-threads", "4", "-cores", "8"},
		{"-corun", "pagemine+ed", "-cores", "8"},
	} {
		var plain, sampled, errb bytes.Buffer
		if code := run(args, &plain, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		if code := run(append(args, "-sparkline"), &sampled, &errb); code != 0 {
			t.Fatalf("%v -sparkline: exit %d, stderr: %s", args, code, errb.String())
		}
		var kept []string
		sparks := 0
		for _, line := range strings.Split(sampled.String(), "\n") {
			if strings.HasPrefix(line, "bus util ") || strings.HasPrefix(line, "act.cores ") {
				sparks++
				continue
			}
			kept = append(kept, line)
		}
		if sparks != 2 {
			t.Errorf("%v -sparkline: %d sparkline lines, want 2:\n%s", args, sparks, sampled.String())
		}
		if got := strings.Join(kept, "\n"); got != plain.String() {
			t.Errorf("%v: -sparkline changed the report:\nwithout:\n%s\nwith:\n%s", args, plain.String(), got)
		}
	}
}

// TestSparklineEndsAtTheRunsEnd: a static 4-thread run holds four of
// eight cores to its last cycle, where its team joins, so the last
// column of the act.cores sparkline reads half height.
func TestSparklineEndsAtTheRunsEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "pagemine", "-policy", "static", "-threads", "4", "-cores", "8", "-sparkline"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	half := machine.Sparkline([]float64{4}, 1, 8)
	for _, line := range strings.Split(out.String(), "\n") {
		if cores, ok := strings.CutPrefix(line, "act.cores "); ok {
			if !strings.HasSuffix(cores, half) {
				t.Errorf("act.cores %s ends below %s", cores, half)
			}
			return
		}
	}
	t.Fatalf("no act.cores line in:\n%s", out.String())
}

func TestCorunReportAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated co-run")
	}
	var out, errb bytes.Buffer
	args := []string{"-corun", "pagemine+mg", "-mapping", "scattered",
		"-cores", "8", "-check", "-counters"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"corun      pagemine + mg (mapping scattered)",
		"makespan", "team t0:pagemine", "team t1:mg", "bus share",
		"invariants ok (", "verify     pagemine ok", "verify     mg ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("co-run report missing %q in:\n%s", want, out.String())
		}
	}
}

func TestHybridRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "gauntlet/oscillate", "-policy", "hybrid",
		"-cores", "8", "-probe-iters", "16", "-min-gain", "0.05"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"workload   gauntlet/oscillate", "policy     hybrid",
		"exec time", "verify     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	// The hybrid's probes always execute exactly, even under -sampled.
	out.Reset()
	errb.Reset()
	args = append(args, "-sampled")
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("-sampled exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "note: -policy hybrid forces exact execution") {
		t.Errorf("missing exact-execution note in:\n%s", out.String())
	}
}

func TestAdaptiveRunReport(t *testing.T) {
	// The policy line names the controller, as the trace metadata and
	// the co-run report do: the adaptive controller's label, not the
	// bare policy it retrains.
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "phaseshift", "-policy", "adaptive", "-cores", "8"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "policy     adaptive(SAT+BAT)\n") {
		t.Errorf("report does not name the adaptive controller in:\n%s", out.String())
	}
}

// TestTraceOutputParses runs one traced case per row and checks the
// files it writes: the Chrome JSON always, the timeline when asked,
// the report lines and metadata each case adds.
func TestTraceOutputParses(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated runs")
	}
	cases := []struct {
		name     string
		args     []string
		timeline bool
		report   []string          // report lines the run must print
		warn     string            // stderr line the run must print
		meta     map[string]string // otherData entries, "~" prefix = substring
	}{
		{name: "ed", args: []string{"-workload", "ed", "-policy", "static", "-threads", "2", "-cores", "8"},
			meta: map[string]string{"workload": "ed", "policy": "static-2"}},
		{name: "overflow", args: []string{"-workload", "ed", "-policy", "static", "-threads", "2",
			"-cores", "8", "-trace-buf", "1024"},
			warn: "ring buffer overflowed", meta: map[string]string{"ring_capacity": "1024"}},
		{name: "adaptive", args: []string{"-workload", "phaseshift", "-policy", "adaptive", "-cores", "16"},
			report: []string{"kernel     phaseshift: 3 phases (2 retrains)"},
			meta:   map[string]string{"workload": "phaseshift", "policy": "adaptive(SAT+BAT)"}},
		{name: "timeline", args: []string{"-workload", "ed", "-policy", "static", "-threads", "2",
			"-cores", "8", "-trace-events", "all", "-check"},
			timeline: true, report: []string{"invariants ok (", "categories sim|mem|sync|ctl"},
			warn: "ring buffer overflowed"},
		{name: "power-budget", args: []string{"-workload", "ed", "-policy", "sat+bat", "-cores", "16",
			"-power-budget", "5.6", "-check"},
			report: []string{"energy", "avg chip power, table-driven", "invariants ok ("},
			meta:   map[string]string{"budget": "5.6", "ladder": "~f1600"}},
		{name: "corun", args: []string{"-corun", "pagemine+mg", "-mapping", "packed", "-policy", "sat+bat", "-cores", "8"},
			report: []string{"corun      pagemine + mg"},
			meta:   map[string]string{"corun": "pagemine+mg", "mapping": "packed", "policy": "SAT+BAT"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, tlPath := filepath.Join(dir, "out.trace.json"), filepath.Join(dir, "out.timeline.txt")
			args := append(tc.args, "-trace", path)
			if tc.timeline {
				args = append(args, "-timeline", tlPath)
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			for _, want := range append(tc.report, "trace      ") {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report missing %q in:\n%s", want, out.String())
				}
			}
			if !strings.Contains(errb.String(), tc.warn) || tc.warn == "" && errb.Len() > 0 {
				t.Errorf("stderr = %q, want %q", errb.String(), tc.warn)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
				OtherData   map[string]string `json:"otherData"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatalf("-trace output is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("-trace output has no events")
			}
			for k, want := range tc.meta {
				got := doc.OtherData[k]
				match := got == want
				if sub, ok := strings.CutPrefix(want, "~"); ok {
					match = strings.Contains(got, sub)
				}
				if !match {
					t.Errorf("trace metadata %s = %q, want %q", k, got, want)
				}
			}
			if tc.timeline {
				if tl, err := os.ReadFile(tlPath); err != nil || len(tl) == 0 {
					t.Errorf("timeline output missing or empty (%v)", err)
				}
			}
		})
	}
}

func TestPowerBudgetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "ed", "-policy", "sat+bat", "-cores", "16",
		"-power-budget", "5.6", "-check"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"ladder f2000>f1600>f1200>f800, budget 5.60",
		"energy", "avg chip power, table-driven",
		"freq=f", "invariants ok (",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
}

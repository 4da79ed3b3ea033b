package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// boundSpec is the part of BENCHMARK.json -compare applies.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdicts of compareSamples.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
)

// compareSamples judges head against base for one metric. A side whose
// interquartile spread exceeds the bound cannot resolve a change of
// that size — unless every head run beats (or loses to) every base
// run. Otherwise the medians decide: a move beyond the bound is better
// or worse, anything smaller is within the bound. higher says which
// direction is better.
func compareSamples(base, head []float64, higher bool, bound float64) string {
	worse := func(a, b float64) bool { // a is worse than b
		if higher {
			return a < b
		}
		return a > b
	}
	if spread(base) > bound || spread(head) > bound {
		switch {
		case allBeat(head, base, worse):
			return verdictBetter
		case allBeat(base, head, worse):
			return verdictWorse
		}
		return verdictUnresolved
	}
	b, h := median(base), median(head)
	change := (h - b) / math.Abs(b)
	if higher {
		change = -change
	}
	switch {
	case change > bound:
		return verdictWorse
	case change < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// allBeat reports whether every sample of a beats every sample of b,
// where worse(x, y) says x is worse than y.
func allBeat(a, b []float64, worse func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !worse(y, x) {
				return false
			}
		}
	}
	return true
}

// loadReports reads every -o report matching pattern and gathers each
// workload × metric's values across them.
func loadReports(pattern string) (map[string]map[string][]float64, int, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no reports match %q", pattern)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != reportSchema {
			return nil, 0, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, reportSchema)
		}
		for w, o := range r.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, m := range o.Metrics {
				out[w][name] = append(out[w][name], m.Value)
			}
		}
	}
	return out, len(paths), nil
}

// compareMain prints, for every workload × end-to-end metric both
// report sets hold, each side's median and quartiles and the verdict
// under BENCHMARK.json's bound. It exits 1 when any metric is worse.
func compareMain(benchJSON string, patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) != 2 {
		fmt.Fprintln(stderr, "fdtbench: -compare takes two quoted globs: 'base*.json' 'head*.json'")
		return 2
	}
	var spec boundSpec
	b, err := os.ReadFile(benchJSON)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fdtbench: %v\n", err)
		return 2
	}
	base, nb, err := loadReports(patterns[0])
	if err == nil {
		var head map[string]map[string][]float64
		var nh int
		head, nh, err = loadReports(patterns[1])
		if err == nil {
			return printComparison(stdout, spec, base, head, nb, nh)
		}
	}
	fmt.Fprintf(stderr, "fdtbench: %v\n", err)
	return 2
}

func printComparison(w io.Writer, spec boundSpec, base, head map[string]map[string][]float64, nb, nh int) int {
	fmt.Fprintf(w, "base: %d reports, head: %d reports; median [q1, q3]\n", nb, nh)
	fmt.Fprintf(w, "%-17s %-15s %-30s %-30s %7s  %s\n", "workload", "metric", "base", "head", "bound", "verdict")
	var names []string
	for name := range base {
		if head[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			bs, hs := base[wl][m.Name], head[wl][m.Name]
			if len(bs) == 0 || len(hs) == 0 {
				continue
			}
			v := compareSamples(bs, hs, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-15s %-30s %-30s %6.0f%%  %s\n", wl, m.Name, summarize(bs), summarize(hs), 100*m.Bound, v)
		}
	}
	return code
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

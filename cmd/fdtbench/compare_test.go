package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareSamples(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, c := range []struct {
		name       string
		base, head []float64
		higher     bool
		want       string
	}{
		{"same", tight, tight, false, verdictWithin},
		{"small move", tight, scale(tight, 1.05), false, verdictWithin},
		{"slower latency", tight, scale(tight, 1.2), false, verdictWorse},
		{"faster latency", tight, scale(tight, 0.8), false, verdictBetter},
		{"lower throughput", tight, scale(tight, 0.8), true, verdictWorse},
		{"higher throughput", tight, scale(tight, 1.2), true, verdictBetter},
		{"noisy head", tight, []float64{60, 140, 100, 70, 130}, false, verdictUnresolved},
		// Too noisy for the bound, but every head run beats every base
		// run.
		{"noisy but disjoint", []float64{150, 200, 250, 300}, []float64{50, 80, 110, 140}, false, verdictBetter},
		{"noisy and disjoint worse", []float64{50, 80, 110, 140}, []float64{150, 200, 250, 300}, false, verdictWorse},
	} {
		if got := compareSamples(c.base, c.head, c.higher, 0.1); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareMainReadsReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, ops float64) {
		r := report{Schema: reportSchema, Workloads: map[string]outcome{
			"daemon-warm": {Correct: true, Attempted: 1, Metrics: map[string]metric{
				"latency_p50_ms": {Value: p50, Unit: "ms"},
				"ops_per_s":      {Value: ops, Unit: "1/s"},
			}},
		}}
		b, _ := json.Marshal(r)
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{1.00, 1.01, 0.99} {
		write("base-"+string(rune('a'+i))+".json", v, 1000)
		write("head-"+string(rune('a'+i))+".json", 2*v, 1000)
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	var out, errOut bytes.Buffer
	code := compareMain(bench, []string{filepath.Join(dir, "base-*.json"), filepath.Join(dir, "head-*.json")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"base: 3 reports, head: 3 reports", "latency_p50_ms", "worse", "ops_per_s", "within"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if code := compareMain(bench, []string{filepath.Join(dir, "none-*.json"), filepath.Join(dir, "head-*.json")}, &out, &errOut); code != 2 {
		t.Errorf("missing base reports: exit %d, want 2", code)
	}
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"fdt/internal/runner"
)

// TestSimPassSmoke runs each sim workload's driver on a reduced call
// list and checks the counts and the goldens.
func TestSimPassSmoke(t *testing.T) {
	runner.SetWorkers(hostWorkers)
	t.Cleanup(func() { runner.SetWorkers(0) })
	gold, err := loadSimGoldens()
	if err != nil {
		t.Fatal(err)
	}

	sw := sweepExact()
	sw.calls = []simCall{{Workload: "mtwister", Bandwidth: 1, Threads: sweepThreads}}
	rep := runSimPass(sw, []int{0}, gold, true)
	if len(rep.Failures) != 0 {
		t.Fatalf("sweep-exact failures: %v", rep.Failures)
	}
	if rep.Ops != 2 || len(rep.LatMs) != 2 || rep.Computes != 2 || len(rep.Spans) != 3 {
		t.Errorf("sweep-exact: ops %d, latencies %d, computes %g, spans %d; want 2, 2, 2, 3",
			rep.Ops, len(rep.LatMs), rep.Computes, len(rep.Spans))
	}

	ps := policiesSampled()
	i := slices.IndexFunc(ps.calls, func(c simCall) bool { return c.Workload == "mtwister" })
	ps.calls = []simCall{ps.calls[i]}
	ps.calls[0].Policies = []string{"sat", "adaptive"}
	rep = runSimPass(ps, []int{0}, gold, false)
	if len(rep.Failures) != 0 {
		t.Fatalf("policies-sampled failures: %v", rep.Failures)
	}
	if rep.Ops != 2 || len(rep.LatMs) != 2 || len(rep.ErrPct) != 2 || rep.SampledIters == 0 || rep.TrainIters == 0 {
		t.Errorf("policies-sampled: ops %d, latencies %d, errors %d, sampled iters %g, train iters %g",
			rep.Ops, len(rep.LatMs), len(rep.ErrPct), rep.SampledIters, rep.TrainIters)
	}

	// A golden mismatch is reported, not hidden.
	wrong := &simGoldens{points: map[string][3]string{pointKey("mtwister", 2): {"1", "1", "1"}}}
	rep = runSimPass(sw, []int{0}, wrong, false)
	if len(rep.Failures) != 2 {
		t.Errorf("against wrong goldens: failures %v, want 2 (one mismatch, one missing row)", rep.Failures)
	}
}

func TestPlansMatchGoldens(t *testing.T) {
	gold, err := loadSimGoldens()
	if err != nil {
		t.Fatal(err)
	}
	sw := sweepExact()
	if sw.ops() != len(gold.points) || sw.ops() != 24 {
		t.Errorf("sweep-exact: %d runs per pass, %d golden rows; want 24 of each", sw.ops(), len(gold.points))
	}
	ps := policiesSampled()
	if ps.ops() != len(gold.exactRef) || ps.ops() != 48 {
		t.Errorf("policies-sampled: %d placements per pass, %d references; want 48 of each", ps.ops(), len(gold.exactRef))
	}
	if gold.meanErrPct <= 0 || gold.meanErrPct > maxPlacementErrPct {
		t.Errorf("recorded sampled mean error %g%%", gold.meanErrPct)
	}
	dg, err := loadDaemonGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range daemonSpecs() {
		if len(dg[s.key()]) != 64 {
			t.Errorf("no golden hash for %s", s.key())
		}
	}
	if len(dg) != 45 {
		t.Errorf("%d daemon goldens, want 45", len(dg))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and
// workload lists in step with what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

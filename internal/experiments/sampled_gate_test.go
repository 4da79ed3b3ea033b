package experiments_test

// The sampled-accuracy gate: every figure's underlying sweeps run in
// both exact and sampled mode, and the per-figure geometric mean of
// the absolute cycle error must stay within 3% — the bound DESIGN.md
// Section 11 commits to and BENCH_PR6.json records. The gate runs in
// CI's sampled-shapes job (FDT_SAMPLED=1) next to the shape suite,
// so a detector regression that bends a curve fails shapes and a
// quieter one that merely drifts the numbers fails here.

import (
	"math"
	"os"
	"testing"

	"fdt/internal/core"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

// gatePanels lists each figure's sweep panels: the workload curves
// whose sampled reproduction the 3% bound covers. Fig 9 and 10 reuse
// the PageMine kernel at other page sizes, and Figs 14/15 reuse these
// same sweeps through the run cache, so the panels below cover every
// distinct curve family in the report.
var gatePanels = []struct {
	figure    string
	workload  string
	bandwidth float64
}{
	{"fig2", "pagemine", 1},
	{"fig4", "ed", 1},
	{"fig8", "isort", 1},
	{"fig8", "gsearch", 1},
	{"fig8", "ep", 1},
	{"fig12", "convert", 1},
	{"fig12", "transpose", 1},
	{"fig12", "mtwister", 1},
	{"fig13", "convert", 0.5},
	{"fig13", "convert", 2},
}

func TestSampledErrorGate(t *testing.T) {
	if os.Getenv("FDT_SAMPLED") == "" {
		t.Skip("set FDT_SAMPLED=1 to run the sampled-vs-exact error gate (runs every sweep twice)")
	}
	const maxGmeanErr = 0.03
	o := fastOptions()
	counts := o.SweepThreads
	md := core.SampledMode()

	perFig := map[string][]float64{}
	var order []string
	for _, p := range gatePanels {
		info, ok := workloads.ByName(p.workload)
		if !ok {
			t.Fatalf("unknown workload %q", p.workload)
		}
		cfg := o.Cfg.WithBandwidth(p.bandwidth)
		spec := core.RunSpec{Cfg: cfg, Workload: info.Name, Factory: info.Factory}
		exact := core.Sweep(spec, counts, nil)
		spec.Mode = md
		sampled := core.Sweep(spec, counts, nil)
		if _, seen := perFig[p.figure]; !seen {
			order = append(order, p.figure)
		}
		for i := range exact {
			err := math.Abs(float64(sampled[i].TotalCycles)-float64(exact[i].TotalCycles)) /
				float64(exact[i].TotalCycles)
			perFig[p.figure] = append(perFig[p.figure], 1+err)
		}
	}
	for _, fig := range order {
		g := stats.Gmean(perFig[fig]) - 1
		t.Logf("%s: gmean |cycle err| %.3f%% over %d points", fig, 100*g, len(perFig[fig]))
		if g > maxGmeanErr {
			t.Errorf("%s: sampled gmean cycle error %.3f%% exceeds %.0f%%",
				fig, 100*g, 100*maxGmeanErr)
		}
	}
}

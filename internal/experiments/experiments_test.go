package experiments

import (
	"strings"
	"testing"

	"fdt/internal/workloads"
)

// testOptions uses a reduced sweep so the shape checks stay fast, and
// SharedRuns so the experiments share their baselines.
func testOptions() Options {
	o := DefaultOptions()
	o.Runs = SharedRuns
	o.SweepThreads = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32}
	return o
}

func TestFig02PageMineUShape(t *testing.T) {
	f := RunFig02(testOptions())
	c := f.Curve
	if c.MinThreads < 2 || c.MinThreads > 8 {
		t.Errorf("PageMine minimum at %d threads, paper has ~4-6", c.MinThreads)
	}
	last := c.Points[len(c.Points)-1]
	minNorm := float64(c.MinCycles) / float64(c.Points[0].Cycles)
	if last.NormTime < minNorm*1.3 {
		t.Errorf("PageMine time at 32 threads (%.3f) does not rise substantially above min (%.3f)",
			last.NormTime, minNorm)
	}
	if s := f.String(); !strings.Contains(s, "pagemine") {
		t.Error("render missing workload name")
	}
}

func TestFig04EDFlattens(t *testing.T) {
	f := RunFig04(testOptions())
	c := f.Curve
	// Time at 32 threads must be within 15% of the minimum — the
	// L-shaped curve of Fig 4a.
	last := c.Points[len(c.Points)-1]
	if ratio := float64(last.Cycles) / float64(c.MinCycles); ratio > 1.15 {
		t.Errorf("ED time at 32 threads is %.2fx the minimum — curve did not flatten", ratio)
	}
	// Utilization climbs roughly linearly then saturates (Fig 4b).
	sat := f.SaturationThreads()
	if sat < 6 || sat > 12 {
		t.Errorf("ED bus saturates at %d threads, paper has ~8", sat)
	}
	if bu1 := c.Points[0].BusUtil; bu1 < 0.10 || bu1 > 0.20 {
		t.Errorf("ED single-thread bus utilization %.1f%%, paper has 14.3%%", 100*bu1)
	}
}

func TestFig08SATNearMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("four full sweeps")
	}
	f := RunFig08(testOptions())
	if len(f.Panels) != 4 {
		t.Fatalf("%d panels, want 4", len(f.Panels))
	}
	for _, p := range f.Panels {
		if p.SAT.OverMinPct > 25 {
			t.Errorf("%s: SAT is %.1f%% above the minimum (paper: within 1%%; repo tolerance 25%%)",
				p.Curve.Workload, p.SAT.OverMinPct)
		}
		if n := chosenThreads(p.SAT.Run); n < 2 || n > 12 {
			t.Errorf("%s: SAT chose %d threads, outside the CS-limited regime", p.Curve.Workload, n)
		}
	}
}

func TestFig09BestThreadsGrowWithPageSize(t *testing.T) {
	if testing.Short() {
		t.Skip("page-size sweep is slow")
	}
	o := testOptions()
	f := RunFig09(o)
	first, last := f.BestThreads[0], f.BestThreads[len(f.BestThreads)-1]
	if last <= first {
		t.Errorf("best threads did not grow with page size: %v", f.BestThreads)
	}
	// SAT must track the trend.
	satFirst, satLast := f.SATThreads[0], f.SATThreads[len(f.SATThreads)-1]
	if satLast <= satFirst {
		t.Errorf("SAT did not adapt to page size: %v", f.SATThreads)
	}
}

func TestFig10SATAdaptsToInput(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	f := RunFig10(testOptions())
	small := chosenThreads(f.SATSmall.Run)
	large := chosenThreads(f.SATLarge.Run)
	if large <= small {
		t.Errorf("SAT chose %d threads for 2.5KB and %d for 10KB — no adaptation", small, large)
	}
	if f.SATSmall.OverMinPct > 30 || f.SATLarge.OverMinPct > 30 {
		t.Errorf("SAT too far above min: %.1f%% / %.1f%%", f.SATSmall.OverMinPct, f.SATLarge.OverMinPct)
	}
}

func TestFig12BATSavesPower(t *testing.T) {
	if testing.Short() {
		t.Skip("four full sweeps")
	}
	f := RunFig12(testOptions())
	if len(f.Panels) != 4 {
		t.Fatalf("%d panels, want 4", len(f.Panels))
	}
	for _, p := range f.Panels {
		if p.PowerSavingPct < 30 {
			t.Errorf("%s: BAT saves only %.0f%% power (paper: 31-78%%)", p.Curve.Workload, p.PowerSavingPct)
		}
		if p.BAT.OverMinPct > 45 {
			t.Errorf("%s: BAT is %.1f%% above the minimum time", p.Curve.Workload, p.BAT.OverMinPct)
		}
	}
	// ED specifically: the paper's marquee BAT number is ~78% power
	// saving.
	if ed := f.Panels[0]; ed.PowerSavingPct < 60 {
		t.Errorf("ED: BAT power saving %.0f%%, paper has 78%%", ed.PowerSavingPct)
	}
}

func TestFig13BATAdaptsToBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps on modified machines")
	}
	f := RunFig13(testOptions())
	half := chosenThreads(f.BATHalf.Run)
	double := chosenThreads(f.BATDouble.Run)
	if double <= half {
		t.Errorf("BAT chose %d threads at 0.5x bandwidth and %d at 2x — no adaptation", half, double)
	}
}

func TestFig14CombinedShape(t *testing.T) {
	f := RunFig14(testOptions())
	if len(f.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(f.Rows))
	}
	for _, r := range f.Rows {
		switch r.Class {
		case workloads.CSLimited:
			if r.NormTime > 0.9 {
				t.Errorf("%s: CS-limited norm time %.2f, want < 0.9", r.Workload, r.NormTime)
			}
			if r.NormPower > 0.5 {
				t.Errorf("%s: CS-limited norm power %.2f, want < 0.5", r.Workload, r.NormPower)
			}
		case workloads.BWLimited:
			if r.NormPower > 0.65 {
				t.Errorf("%s: BW-limited norm power %.2f, want < 0.65", r.Workload, r.NormPower)
			}
			if r.NormTime > 1.35 {
				t.Errorf("%s: BW-limited norm time %.2f, want ~1", r.Workload, r.NormTime)
			}
		case workloads.Scalable:
			if r.NormTime < 0.9 || r.NormTime > 1.15 {
				t.Errorf("%s: scalable norm time %.2f, want ~1", r.Workload, r.NormTime)
			}
			if r.NormPower < 0.85 {
				t.Errorf("%s: scalable norm power %.2f, want ~1 (FDT must not throttle it)", r.Workload, r.NormPower)
			}
			if r.Threads != 32 {
				t.Errorf("%s: scalable got %.0f threads, want 32", r.Workload, r.Threads)
			}
		}
	}
	if f.GmeanTime >= 1.0 {
		t.Errorf("gmean time %.3f, paper has 0.83 (a reduction)", f.GmeanTime)
	}
	if f.GmeanPower >= 0.6 {
		t.Errorf("gmean power %.3f, paper has 0.41", f.GmeanPower)
	}
}

func TestFig15FDTMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweeps every workload")
	}
	f := RunFig15(testOptions())
	if len(f.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(f.Rows))
	}
	// FDT must be close to the oracle on average without its offline
	// knowledge.
	if f.GmeanFDTTime > f.GmeanOracleTime*1.35 {
		t.Errorf("FDT gmean time %.3f vs oracle %.3f — too far", f.GmeanFDTTime, f.GmeanOracleTime)
	}
	// The MTwister story: per-kernel adaptation beats any static
	// choice on power.
	for _, r := range f.Rows {
		if r.Workload == "mtwister" && r.FDTPower >= r.OraclePower {
			t.Errorf("mtwister: FDT power %.3f not below oracle %.3f (the Fig 15 headline)",
				r.FDTPower, r.OraclePower)
		}
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1(DefaultOptions().Cfg)
	for _, want := range []string{"32-core", "MESI", "ring", "split-transaction"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, w := range AllWorkloads {
		if !strings.Contains(t2, w) {
			t.Errorf("Table 2 missing %q", w)
		}
	}
}

func TestAllWorkloadsListMatchesRegistry(t *testing.T) {
	if len(AllWorkloads) != 12 {
		t.Fatalf("AllWorkloads has %d entries", len(AllWorkloads))
	}
	for _, name := range AllWorkloads {
		if _, ok := workloads.ByName(name); !ok {
			t.Errorf("AllWorkloads lists unknown %q", name)
		}
	}
}

package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/gauntlet_scoreboard.json from the current tree")

// gauntletGolden pins every field of the gauntlet scoreboard: each
// member's oracle and every policy row, hybrid fallbacks and
// recoveries included.
const gauntletGolden = "testdata/gauntlet_scoreboard.json"

// The robustness acceptance numbers: per-member ceilings on the hybrid
// controller's time-vs-oracle ratio, set from the measured table with a
// little headroom (measured: oscillate 1.124, csdep 1.150, busstorm
// 1.051, eqclash 1.155). On oscillate, busstorm and eqclash the hybrid
// sits within 10% of the member's best controller; on csdep it lands
// 11.6% over hill-climb's 1.029 — the probe comparisons cost real
// iterations and csdep is the family's shortest kernel, so the audit
// overhead is a larger slice of the run (EXPERIMENTS.md documents the
// miss). The ceilings gate against regression, not against the paper.
var hybridCeilings = map[string]float64{
	"gauntlet/oscillate": 1.16,
	"gauntlet/csdep":     1.19,
	"gauntlet/busstorm":  1.09,
	"gauntlet/eqclash":   1.20,
}

func TestGauntletRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("full gauntlet: 7 controllers x 4 members plus oracle sweeps")
	}
	g := RunGauntlet(testOptions())
	if len(g.Members) != 4 {
		t.Fatalf("%d gauntlet members, want 4", len(g.Members))
	}
	checkGauntletGolden(t, g)

	adaptiveLosses := 0
	for _, m := range g.Members {
		hy, ok := g.Row(m.Workload, "hybrid")
		if !ok {
			t.Fatalf("%s: no hybrid row", m.Workload)
		}
		ad, ok := g.Row(m.Workload, "adaptive")
		if !ok {
			t.Fatalf("%s: no adaptive row", m.Workload)
		}
		hc, ok := g.Row(m.Workload, "hill-climb")
		if !ok {
			t.Fatalf("%s: no hill-climb row", m.Workload)
		}

		// Never worse than the worse parent, on every member.
		worst := ad.VsOracle
		if hc.VsOracle > worst {
			worst = hc.VsOracle
		}
		if hy.VsOracle > worst {
			t.Errorf("%s: hybrid %.3fx oracle, worse than both parents (adaptive %.3fx, hill-climb %.3fx)",
				m.Workload, hy.VsOracle, ad.VsOracle, hc.VsOracle)
		}
		// Absolute per-member ceiling.
		if ceil := hybridCeilings[m.Workload]; hy.VsOracle > ceil {
			t.Errorf("%s: hybrid %.3fx oracle, ceiling %.2fx", m.Workload, hy.VsOracle, ceil)
		}
		if ad.VsOracle >= 1.25 {
			adaptiveLosses++
		}
		// Hysteresis: the state machine never thrashes.
		if hy.Fallbacks > 2 || hy.Recoveries > 2 {
			t.Errorf("%s: hybrid transitions %d fallbacks / %d recoveries, want <= 2 each",
				m.Workload, hy.Fallbacks, hy.Recoveries)
		}
	}
	// The gauntlet must actually break the pure-model pipeline — it is
	// only a robustness test if the adversaries draw blood.
	if adaptiveLosses < 2 {
		t.Errorf("pure-model adaptive loses >= 25%% on only %d members, want >= 2 (the gauntlet is too soft)", adaptiveLosses)
	}

	// The fallback story: busstorm's bursts break the trained bus
	// expectation, the hybrid must notice and switch to measured mode.
	bu, _ := g.Row("gauntlet/busstorm", "hybrid")
	if bu.Fallbacks < 1 {
		t.Errorf("gauntlet/busstorm: hybrid never fell back (%d fallbacks)", bu.Fallbacks)
	}
}

// checkGauntletGolden compares g's JSON with the golden byte for byte;
// regenerate it only for an intended behaviour change:
//
//	go test ./internal/experiments -run TestGauntletRobustness -update
func checkGauntletGolden(t *testing.T, g Gauntlet) {
	t.Helper()
	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gauntletGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gauntletGolden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("gauntlet scoreboard drifted from %s:\n got %s\nwant %s", gauntletGolden, got, want)
	}
}

func TestGauntletScoreboardShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full gauntlet: 7 controllers x 4 members plus oracle sweeps")
	}
	g := RunGauntlet(testOptions())

	for _, m := range g.Members {
		if m.Breaks == "" {
			t.Errorf("%s: no Breaks description", m.Workload)
		}
		if m.OracleThreads < 1 || m.OracleCycles == 0 {
			t.Errorf("%s: malformed oracle (%d threads, %d cycles)", m.Workload, m.OracleThreads, m.OracleCycles)
		}
		if len(m.Rows) != len(gauntletPolicies()) {
			t.Errorf("%s: %d rows, want %d", m.Workload, len(m.Rows), len(gauntletPolicies()))
		}
		best := m.Best()
		for _, r := range m.Rows {
			if r.Cycles < best.Cycles {
				t.Errorf("%s: Best() returned %s (%d cycles) but %s has %d", m.Workload, best.Policy, best.Cycles, r.Policy, r.Cycles)
			}
			// VsOracle >= 1 by construction: the oracle is the best
			// static run, and no controller beats the member's best
			// static allocation on these kernels.
			if r.VsOracle < 1.0 {
				t.Errorf("%s/%s: VsOracle %.3f < 1 — oracle is not the sweep minimum", m.Workload, r.Policy, r.VsOracle)
			}
		}
		// Training and probing are free for the serial baseline only.
		if serial, ok := g.Row(m.Workload, "serial"); !ok || serial.Retrains != 0 || serial.Fallbacks != 0 {
			t.Errorf("%s: serial row has retrains/fallbacks", m.Workload)
		}
	}

	if _, ok := g.Member("gauntlet/oscillate"); !ok {
		t.Error("Member() misses a scored member")
	}
	if _, ok := g.Member("gauntlet/nosuch"); ok {
		t.Error("Member() invents a member")
	}
	if _, ok := g.Row("gauntlet/oscillate", "nosuch"); ok {
		t.Error("Row() invents a policy")
	}

	s := g.String()
	for _, want := range []string{"Robustness gauntlet", "gauntlet/oscillate", "gauntlet/eqclash",
		"vs.oracle", "fall", "rec", "<- best", "breaks:"} {
		if !strings.Contains(s, want) {
			t.Errorf("table rendering missing %q", want)
		}
	}
	csv := g.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if want := 1 + 4*len(gauntletPolicies()); len(lines) != want {
		t.Errorf("CSV has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "workload,breaks,oracle_threads") {
		t.Errorf("CSV header malformed: %s", lines[0])
	}
}

package invariant_test

// The harness matrix: every Table-2 workload under every policy class
// must complete with zero invariant violations. These runs bypass the
// experiment run cache deliberately — a checker-armed machine must
// never share cached results with unchecked runs — and use scaled-down
// machines so the whole matrix stays inside tier-1 budgets while still
// exercising contention (SMT=1, shared L3, coherence, the off-chip
// bus).

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/measured_runs.txt from the current tree")

// measuredGolden pins the full RunResult JSON of every measured-policy
// run the matrix makes, one "workload/policy <json>" line each.
const measuredGolden = "testdata/measured_runs.txt"

// measuredPolicies are the matrix policies whose results the golden
// pins: the controllers that time real chunks.
var measuredPolicies = map[string]bool{"hill-climb": true, "hybrid": true, "BAT-refined": true}

// runChecked executes one workload under one controller on a fresh
// checker-armed machine and returns the checker and the result.
func runChecked(t *testing.T, cores int, ctl *core.Controller, workload string) (*invariant.Checker, core.RunResult) {
	t.Helper()
	info, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	m := machine.MustNew(machine.DefaultConfig().WithCores(cores))
	ck := invariant.New()
	m.AttachChecker(ck)
	res := ctl.Run(m, info.Factory(m))
	return ck, res
}

// readMeasuredGolden loads the golden's lines keyed by run name.
func readMeasuredGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(measuredGolden)
	if os.IsNotExist(err) && *update {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		name, js, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", measuredGolden, sc.Text())
		}
		out[name] = js
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeMeasuredGolden rewrites the golden, sorted by run name.
func writeMeasuredGolden(t *testing.T, runs map[string]string) {
	t.Helper()
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, runs[n])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(measuredGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func policies() map[string]func() *core.Controller {
	return map[string]func() *core.Controller{
		"serial":      func() *core.Controller { return core.NewController(core.Static{N: 1}) },
		"SAT":         func() *core.Controller { return core.NewController(core.SAT{}) },
		"BAT":         func() *core.Controller { return core.NewController(core.BAT{}) },
		"SAT+BAT":     func() *core.Controller { return core.NewController(core.Combined{}) },
		"adaptive":    adaptive,
		"hill-climb":  func() *core.Controller { return core.NewController(core.HillClimb{}) },
		"hybrid":      func() *core.Controller { return core.NewController(core.Hybrid{}) },
		"BAT-refined": func() *core.Controller { return core.NewController(core.RefinedBAT{}) },
	}
}

func adaptive() *core.Controller {
	ctl := core.NewController(core.Combined{})
	ctl.Adaptive = true
	return ctl
}

// TestMatrixZeroViolations is the acceptance matrix: 12 workloads x
// {serial, SAT, BAT, SAT+BAT, adaptive, hill-climb, hybrid,
// BAT-refined}, zero violations everywhere. The measured policies'
// results must also match testdata/measured_runs.txt byte for byte;
// regenerate it only for an intended behaviour change:
//
//	go test ./internal/invariant -run TestMatrixZeroViolations -update
func TestMatrixZeroViolations(t *testing.T) {
	pols := policies()
	golden := readMeasuredGolden(t)
	for _, info := range workloads.All() {
		for name, mk := range pols {
			info, name, mk := info, name, mk
			t.Run(info.Name+"/"+name, func(t *testing.T) {
				ck, res := runChecked(t, 16, mk(), info.Name)
				if err := ck.Err(); err != nil {
					t.Fatal(err)
				}
				if ck.Checks() == 0 {
					t.Fatal("checker armed but no checks ran")
				}
				if !measuredPolicies[name] {
					return
				}
				js, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				key := info.Name + "/" + name
				if *update {
					golden[key] = string(js)
					return
				}
				if want, ok := golden[key]; !ok {
					t.Errorf("%s missing from %s", key, measuredGolden)
				} else if string(js) != want {
					t.Errorf("%s drifted from %s:\n got %s\nwant %s", key, measuredGolden, js, want)
				}
			})
		}
	}
	if *update {
		writeMeasuredGolden(t, golden)
	}
}

// TestMatrixAdaptivePhaseShift runs the phase-change stress workload
// (beyond Table 2) under the adaptive controller: retraining must not
// unbalance any ledger or queue audit.
func TestMatrixAdaptivePhaseShift(t *testing.T) {
	ck, _ := runChecked(t, 16, adaptive(), "phaseshift")
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMatrixSMT arms the harness on an SMT-2 machine, where contexts
// share cores and the compute derating must still conserve cycles.
func TestMatrixSMT(t *testing.T) {
	info, _ := workloads.ByName("ed")
	m := machine.MustNew(machine.Config{
		Mem:         machine.DefaultConfig().WithCores(8).Mem,
		IssueWidth:  2,
		ForkCost:    100,
		SMTContexts: 2,
	})
	ck := invariant.New()
	m.AttachChecker(ck)
	core.NewController(core.Static{}).Run(m, info.Factory(m))
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}

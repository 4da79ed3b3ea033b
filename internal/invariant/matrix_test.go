package invariant_test

// The harness matrix: every Table-2 workload under every policy class
// must complete with zero invariant violations. These runs bypass the
// experiment run cache deliberately — a checker-armed machine must
// never share cached results with unchecked runs — and use scaled-down
// machines so the whole matrix stays inside tier-1 budgets while still
// exercising contention (SMT=1, shared L3, coherence, the off-chip
// bus).

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// runChecked executes one workload under one controller on a fresh
// checker-armed machine and returns the checker.
func runChecked(t *testing.T, cores int, ctl *core.Controller, workload string) *invariant.Checker {
	t.Helper()
	info, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	m := machine.MustNew(machine.DefaultConfig().WithCores(cores))
	ck := invariant.New()
	m.AttachChecker(ck)
	ctl.Run(m, info.Factory(m))
	return ck
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
	mp := core.DefaultMonitorParams()
	ctl.Monitor = &mp
	return ctl
}

// TestMatrixZeroViolations is the acceptance matrix: 12 workloads x
// {serial, SAT, BAT, SAT+BAT, adaptive, hill-climb, hybrid,
// BAT-refined}, zero violations everywhere.
func TestMatrixZeroViolations(t *testing.T) {
	pols := policies()
	for _, info := range workloads.All() {
		for name, mk := range pols {
			info, name, mk := info, name, mk
			t.Run(info.Name+"/"+name, func(t *testing.T) {
				ck := runChecked(t, 16, mk(), info.Name)
				if err := ck.Err(); err != nil {
					t.Fatal(err)
				}
				if ck.Checks() == 0 {
					t.Fatal("checker armed but no checks ran")
				}
			})
		}
	}
}

// TestMatrixAdaptivePhaseShift runs the phase-change stress workload
// (beyond Table 2) under the adaptive controller: retraining must not
// unbalance any ledger or queue audit.
func TestMatrixAdaptivePhaseShift(t *testing.T) {
	ck := runChecked(t, 16, adaptive(), "phaseshift")
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

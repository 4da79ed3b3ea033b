package shape

// The cross-suite mutation test ISSUE.md demands: at least one
// injected breakage must trip a shape assertion, not just a runtime
// invariant. Bus occupancy skew stretches every transfer's bus
// residency beyond what the busy counter accounts, so measured
// utilization can never reach the saturation threshold — ED's Figure-4
// knee (KneeWithin, the fig4-ed-knee predicate) disappears. The same
// fault is caught at runtime by bus-busy-audit (see
// internal/invariant/mutation_test.go); here it must also bend the
// curve.
//
// All machines are built directly: a mutated machine's results must
// never enter the keyed run cache, whose keys do not include fault
// knobs.

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// edSweep runs ED at each static thread count on fresh machines,
// mutating each machine before the run.
func edSweep(t *testing.T, threads []int, mutate func(m *machine.Machine)) []core.RunResult {
	t.Helper()
	info, ok := workloads.ByName("ed")
	if !ok {
		t.Fatal("ed workload not registered")
	}
	runs := make([]core.RunResult, len(threads))
	for i, n := range threads {
		m := machine.MustNew(machine.DefaultConfig())
		if mutate != nil {
			mutate(m)
		}
		runs[i] = core.NewController(core.Static{N: n}).Run(m, info.Factory(m))
	}
	return runs
}

func TestMutationBusOccupancySkewBendsKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("two direct ED sweeps")
	}
	threads := []int{1, 2, 4, 6, 8, 10, 12}

	control := experiments.CurveOf("ed", threads, edSweep(t, threads, nil))
	if err := KneeWithin(control, 0.95, 6, 12); err != nil {
		t.Fatalf("control sweep fails the fig4-ed-knee predicate: %v", err)
	}

	mutated := experiments.CurveOf("ed", threads, edSweep(t, threads, func(m *machine.Machine) {
		m.Mem.Bus.FaultOccupancySkew(4)
	}))
	if err := KneeWithin(mutated, 0.95, 6, 12); err == nil {
		t.Fatal("bus occupancy skew did not bend the knee: shape suite would miss this regression")
	}
}

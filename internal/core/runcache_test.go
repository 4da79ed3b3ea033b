package core_test

// Determinism regression: the host-parallel executor must be
// invisible in the results. A sweep fanned out over 8 workers has to
// produce byte-identical RunResults — cycles, bus-busy, power, every
// per-kernel decision — to the legacy serial loop, because each point
// simulates on its own fresh machine and the engine admits no host
// nondeterminism.

import (
	"fmt"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
	"fdt/internal/workloads"
)

// testFactory resolves a registered workload (the workloads package
// cannot be imported from core's internal tests — it imports core —
// so this lives in the external test package).
func testFactory(t *testing.T, name string) core.Factory {
	t.Helper()
	info, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return func(m *machine.Machine) core.Workload { return info.Factory(m) }
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep comparison")
	}
	cfg := machine.DefaultConfig()
	threads := []int{1, 2, 4, 8, 16, 32}
	// One synchronization-limited and one bandwidth-limited workload:
	// between them they exercise locks, barriers, the coherence
	// directory, the off-chip bus and DRAM banks.
	for _, name := range []string{"pagemine", "ed"} {
		fac := testFactory(t, name)

		runner.SetWorkers(1)
		serial := core.Sweep(core.NewRuns(0, nil), core.RunSpec{Cfg: cfg, Factory: fac}, threads, nil)

		runner.SetWorkers(8)
		parallel := core.Sweep(core.NewRuns(0, nil), core.RunSpec{Cfg: cfg, Factory: fac}, threads, nil)
		runner.SetWorkers(0)

		if len(serial) != len(parallel) {
			t.Fatalf("%s: %d serial points vs %d parallel", name, len(serial), len(parallel))
		}
		for i := range serial {
			want := fmt.Sprintf("%#v", serial[i])
			got := fmt.Sprintf("%#v", parallel[i])
			if want != got {
				t.Errorf("%s @ %d threads: parallel run diverged\nserial:   %s\nparallel: %s",
					name, threads[i], want, got)
			}
		}
	}
}

func TestRunPolicyKeyedMatchesUncachedAndMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full run")
	}
	cfg := machine.DefaultConfig()
	fac := testFactory(t, "pagemine")

	// RunPolicyKeyed memoizes in the package default; count that
	// value's hits and misses across the two calls.
	h0, m0 := core.RunCacheStats()
	direct := core.RunPolicy(cfg, fac, core.SAT{})
	first := core.RunPolicyKeyed(cfg, "pagemine", fac, core.SAT{})
	again := core.RunPolicyKeyed(cfg, "pagemine", fac, core.SAT{})

	if fmt.Sprintf("%#v", direct) != fmt.Sprintf("%#v", first) {
		t.Errorf("keyed run diverged from direct run:\n%#v\nvs\n%#v", direct, first)
	}
	if fmt.Sprintf("%#v", first) != fmt.Sprintf("%#v", again) {
		t.Errorf("cache returned a different result on the second call")
	}
	hits, misses := core.RunCacheStats()
	if hits-h0 != 1 || misses-m0 != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1 / 1", hits-h0, misses-m0)
	}
}

func TestStaticPolicyKeyNormalization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full run")
	}
	cfg := machine.DefaultConfig()
	fac := testFactory(t, "ep")
	runs := core.NewRuns(0, nil)
	run := func(pol core.Policy) core.RunResult {
		return core.RunSpec{Cfg: cfg, Workload: "ep", Factory: fac, Control: core.Control{Policy: pol}}.Run(runs)
	}

	// Static{} ("as many threads as cores") and Static{N: cores} are
	// the same execution; the cache must address them identically so
	// figure baselines share the sweep's all-cores point.
	all := run(core.Static{})
	n32 := run(core.Static{N: cfg.Mem.Cores})
	if hits, misses := runs.Stats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
	if all.TotalCycles != n32.TotalCycles {
		t.Errorf("static-all and static-32 diverged: %d vs %d cycles",
			all.TotalCycles, n32.TotalCycles)
	}
}

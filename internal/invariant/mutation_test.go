package invariant_test

// Mutation tests: deliberately broken builds, injected through test
// hooks on the model structures, must each be caught by the NAMED
// invariant that guards the broken bookkeeping (DESIGN.md Section 10).
// Each test also runs an un-mutated control on the identical
// configuration to prove the catch is the mutation's doing, not noise.
//
// These machines are built directly — never through the experiment run
// cache — because a mutated machine's results must not be memoized for
// clean runs (the fault knobs are not part of any cache key).

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// mutationRun builds a checker-armed machine, lets mutate install a
// fault on it, runs the workload under static threading, and returns
// the checker.
func mutationRun(t *testing.T, workload string, threads int, mutate func(m *machine.Machine)) *invariant.Checker {
	t.Helper()
	info, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	ck := invariant.New()
	m.AttachChecker(ck)
	if mutate != nil {
		mutate(m)
	}
	core.NewController(core.Static{N: threads}).Run(m, info.Factory(m))
	return ck
}

// TestMutationBusAccountingSkew under-accounts every bus transfer by
// one cycle — the "transfer accounting off by one" regression. The
// bus conservation identity (busy == transfers x cycles/line) must
// name it.
func TestMutationBusAccountingSkew(t *testing.T) {
	control := mutationRun(t, "convert", 8, nil)
	if err := control.Err(); err != nil {
		t.Fatalf("control run not clean: %v", err)
	}

	ck := mutationRun(t, "convert", 8, func(m *machine.Machine) {
		m.Mem.Bus.FaultAccountingSkew(1)
	})
	if !ck.Violated("bus-conservation") {
		t.Fatalf("bus accounting skew not caught by bus-conservation; checker: %s", ck.Report())
	}
	if !ck.Violated("bus-busy-audit") {
		t.Fatalf("bus accounting skew not caught by bus-busy-audit; checker: %s", ck.Report())
	}
}

// TestMutationBusOccupancySkew stretches every transfer's bus
// occupancy without changing what it accounts: the counter no longer
// matches the observed schedule, so the queue audit must name it.
// (This mutation also bends timing — the shape suite's companion test
// lives in internal/experiments.)
func TestMutationBusOccupancySkew(t *testing.T) {
	ck := mutationRun(t, "convert", 8, func(m *machine.Machine) {
		m.Mem.Bus.FaultOccupancySkew(4)
	})
	if !ck.Violated("bus-busy-audit") {
		t.Fatalf("bus occupancy skew not caught by bus-busy-audit; checker: %s", ck.Report())
	}
}

// TestMutationDirectoryDropDowngrade makes read misses forget to
// downgrade a remote Modified owner — a coherence-protocol bug that
// leaves a line Modified while other cores hold "shared" copies. The
// MESI single-writer invariant must name it.
func TestMutationDirectoryDropDowngrade(t *testing.T) {
	// pagemine's threads share the histogram under a lock: cross-core
	// read-after-write traffic guarantees remote-owner read misses.
	control := mutationRun(t, "pagemine", 8, nil)
	if err := control.Err(); err != nil {
		t.Fatalf("control run not clean: %v", err)
	}

	ck := mutationRun(t, "pagemine", 8, func(m *machine.Machine) {
		m.Mem.Dir.FaultDropDowngrade()
	})
	if !ck.Violated("dir-single-writer") {
		t.Fatalf("dropped downgrade not caught by dir-single-writer; checker: %s", ck.Report())
	}
}

// teamMutationRun co-schedules two workloads as teams on a
// checker-armed machine with an optional fault installed, and returns
// the checker. The multi-tenant invariants (team-conservation,
// team-bus-partition) only arm when teams exist, so these mutations
// must run through the co-run path.
func teamMutationRun(t *testing.T, mutate func(m *machine.Machine)) *invariant.Checker {
	t.Helper()
	pm, ok := workloads.ByName("pagemine")
	if !ok {
		t.Fatal("pagemine not registered")
	}
	cv, ok := workloads.ByName("convert")
	if !ok {
		t.Fatal("convert not registered")
	}
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	ck := invariant.New()
	m.AttachChecker(ck)
	if mutate != nil {
		mutate(m)
	}
	ctl := core.Control{Policy: core.Static{N: 2}}
	core.RunSpec{Cfg: m.Cfg, Teams: []core.Team{
		{Workload: pm.Name, Factory: pm.Factory, Control: ctl},
		{Workload: cv.Name, Factory: cv.Factory, Control: ctl},
	}}.RunOn(m)
	return ck
}

// TestMutationTeamBusAttributionSkew under-charges one cycle of every
// bus transfer to the requesting team's private counter while the
// machine-global counter stays correct — the "attribution leak" a
// per-team accounting refactor can introduce silently, because no
// single-tenant test ever sums team counters. The bus-partition
// identity (sum of team bus busy == global bus busy) must name it.
func TestMutationTeamBusAttributionSkew(t *testing.T) {
	control := teamMutationRun(t, nil)
	if err := control.Err(); err != nil {
		t.Fatalf("control co-run not clean: %v", err)
	}

	ck := teamMutationRun(t, func(m *machine.Machine) {
		m.Mem.Bus.FaultTeamAttrSkew(1)
	})
	if !ck.Violated("team-bus-partition") {
		t.Fatalf("team attribution skew not caught by team-bus-partition; checker: %s", ck.Report())
	}
}

// TestMutationTeamLedgerFoldSkew drops one busy cycle each time a
// released context's ledger folds into its team's — the team ledger
// no longer balances against the team's occupied window, and the
// per-team conservation identity must name it.
func TestMutationTeamLedgerFoldSkew(t *testing.T) {
	ck := teamMutationRun(t, func(m *machine.Machine) {
		m.FaultTeamFoldSkew(1)
	})
	if !ck.Violated("team-conservation") {
		t.Fatalf("team fold skew not caught by team-conservation; checker: %s", ck.Report())
	}
}

// powerMutationRun builds a checker-armed machine with the default
// P-state ladder, lets mutate install a fault on its power meter,
// runs the workload through the full DVFS pipeline under pp, and
// returns the checker. The power invariants only arm on tracked
// (ladder) meters, so these mutations must run on a DVFS machine.
func powerMutationRun(t *testing.T, workload string, pol core.Policy, pp core.PowerParams, mutate func(m *machine.Machine)) *invariant.Checker {
	t.Helper()
	info, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	cfg := machine.DefaultConfig().WithCores(8).WithFreq(machine.DefaultLadder())
	m := machine.MustNew(cfg)
	ck := invariant.New()
	m.AttachChecker(ck)
	if mutate != nil {
		mutate(m)
	}
	ctl := core.NewController(pol)
	ctl.Power = &pp
	ctl.Run(m, info.Factory(m))
	return ck
}

// TestMutationPowerTableSkew inflates the meter's active-power
// accounting by 5% while the machine config's ladder rows stay
// correct — the "energy model drifted from the hardware table"
// regression a power-model refactor can introduce silently, because
// every relative comparison still looks plausible. The independent
// re-derivation of Σ state-residency × table power must name it.
func TestMutationPowerTableSkew(t *testing.T) {
	pp := core.PowerParams{Budget: 0, LockState: -1}
	control := powerMutationRun(t, "pagemine", core.Combined{}, pp, nil)
	if err := control.Err(); err != nil {
		t.Fatalf("control run not clean: %v", err)
	}

	ck := powerMutationRun(t, "pagemine", core.Combined{}, pp, func(m *machine.Machine) {
		m.Power.FaultTableSkew(0.05)
	})
	if !ck.Violated("power-energy-conservation") {
		t.Fatalf("power table skew not caught by power-energy-conservation; checker: %s", ck.Report())
	}
}

// TestMutationDropPStateTransition makes the meter forget to close
// the outgoing state's wall interval on a P-state transition — the
// residency bookkeeping bug of a DVFS driver that switches frequency
// without flushing accounting. The run must transition mid-execution
// for the fault to lose residency (a transition at cycle 0 drops a
// zero-length interval), so it uses a tight budget with the full
// search: training raises the chip to nominal, the budgeted decision
// drops it to a lower state, every kernel. The per-core residency
// partition must name the loss.
func TestMutationDropPStateTransition(t *testing.T) {
	pp := core.PowerParams{Budget: 5, LockState: -1}
	control := powerMutationRun(t, "ed", core.Combined{}, pp, nil)
	if err := control.Err(); err != nil {
		t.Fatalf("control run not clean: %v", err)
	}

	ck := powerMutationRun(t, "ed", core.Combined{}, pp, func(m *machine.Machine) {
		m.Power.FaultDropTransition()
	})
	if !ck.Violated("power-state-residency") {
		t.Fatalf("dropped P-state transition not caught by power-state-residency; checker: %s", ck.Report())
	}
}

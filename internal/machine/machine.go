// Package machine composes the simulated CMP: the event engine, the
// memory system, per-core CPUs, the power meter and the performance
// counters — the "simulated machine" of Table 1 that workloads run on
// and that the FDT runtime controls.
package machine

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/mem"
	"fdt/internal/power"
	"fdt/internal/sim"
	"fdt/internal/trace"
)

// Config describes a machine. Zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Mem is the memory-system configuration (Table 1 by default).
	Mem mem.Config
	// IssueWidth is the per-core issue width (Table 1: 2-wide).
	IssueWidth int
	// ForkCost is the cycles a master thread spends entering a
	// parallel region (dispatching work to a pooled worker team).
	ForkCost uint64
	// SMTContexts is the number of hardware thread contexts per core.
	// The paper assumes 1 ("no SMT on individual cores") but argues
	// its conclusions carry over to SMT-enabled CMPs (Section 9);
	// setting 2 models such a machine: co-resident contexts share
	// their core's issue width and private caches, and a core is
	// active (for the power metric) while any of its contexts is.
	SMTContexts int
	// Freq is the per-core P-state ladder (see freq.go). The zero
	// value — no states — is the single-frequency machine of the
	// paper, bit-identical to pre-DVFS releases.
	Freq FreqConfig
}

// DefaultConfig returns the paper's 32-core machine.
func DefaultConfig() Config {
	return Config{
		Mem:         mem.DefaultConfig(),
		IssueWidth:  2,
		ForkCost:    100,
		SMTContexts: 1,
	}
}

// WithSMT returns a copy with the given contexts per core.
func (c Config) WithSMT(contexts int) Config {
	c.SMTContexts = contexts
	return c
}

// WithCores returns a copy with the core count replaced.
func (c Config) WithCores(n int) Config {
	c.Mem.Cores = n
	return c
}

// WithBandwidth returns a copy with off-chip bandwidth scaled by
// factor (Fig 13's machines).
func (c Config) WithBandwidth(factor float64) Config {
	c.Mem = c.Mem.ScaleBandwidth(factor)
	return c
}

// Machine is one simulated CMP instance. A Machine simulates exactly
// one program execution; build a fresh Machine per run.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Mem   *mem.System
	Ctrs  *counters.Set
	Power *power.Meter

	// Trace is the machine's tracer, nil (all emit sites no-op) until
	// AttachTracer installs one. Layers that hold a Machine — the
	// threading runtime, the FDT controller — emit through it.
	Trace *trace.Tracer

	// Check is the machine's invariant checker, nil (all check sites
	// no-op) until AttachChecker installs one. Layers that hold a
	// Machine — the threading runtime, the FDT controller — consult it.
	Check *invariant.Checker

	// ctxBusy tracks hardware-context occupancy; coreLoad counts the
	// occupied contexts per core; coreSince records when each core
	// last became active (for the power integral) and coreFreed when
	// it last went idle.
	ctxBusy   []bool
	coreLoad  []int
	coreSince []uint64
	coreFreed []uint64
	// end is the cycle the last program to complete so far completed
	// at (see ProgramDone).
	end uint64
	// coreTracks caches per-core trace tracks for the threading
	// runtime's synchronization spans.
	coreTracks []trace.TrackID
	// ledgers/occupiedAt hold per-context cycle-conservation ledgers
	// for the invariant harness (nil when unchecked); each context's
	// ledger is checked against its occupancy window at release.
	ledgers    []invariant.Ledger
	occupiedAt []uint64
	// teams/ctxTeam hold the machine's tenant partition (see Team);
	// ctxSince records each context's occupancy start for per-team
	// active-cycle attribution (kept separately from occupiedAt, which
	// exists only on checked runs).
	teams    []*Team
	ctxTeam  []*Team
	ctxSince []uint64
	// faultTeamFoldSkew is a deliberate-fault knob for the mutation
	// tests: ReleaseContext under-folds this many busy cycles into the
	// owning team's ledger, which "team-conservation" must catch.
	faultTeamFoldSkew uint64
	// coreFreq tracks each core's current P-state (nil on trivial
	// ladders); powerBudget, when set, arms the end-of-run
	// budget-compliance invariant.
	coreFreq    []int
	powerBudget float64
}

// Validate rejects a configuration New cannot build: the memory
// system's geometry, the issue width, the SMT context count and the
// P-state ladder.
func (c Config) Validate() error {
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("machine: IssueWidth = %d, want > 0", c.IssueWidth)
	}
	if c.SMTContexts < 1 || c.SMTContexts > 4 {
		return fmt.Errorf("machine: SMTContexts = %d, want 1..4", c.SMTContexts)
	}
	return c.Freq.Validate()
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctrs := counters.NewSet()
	ms, err := mem.NewSystem(cfg.Mem, ctrs)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:       cfg,
		Eng:       sim.NewEngine(),
		Mem:       ms,
		Ctrs:      ctrs,
		Power:     power.NewMeter(cfg.Mem.Cores),
		ctxBusy:   make([]bool, cfg.Mem.Cores*cfg.SMTContexts),
		coreLoad:  make([]int, cfg.Mem.Cores),
		coreSince: make([]uint64, cfg.Mem.Cores),
		coreFreed: make([]uint64, cfg.Mem.Cores),
		ctxTeam:   make([]*Team, cfg.Mem.Cores*cfg.SMTContexts),
		ctxSince:  make([]uint64, cfg.Mem.Cores*cfg.SMTContexts),
	}
	if !cfg.Freq.Trivial() {
		mt, err := power.NewMeterTable(cfg.Mem.Cores, cfg.Freq.Table())
		if err != nil {
			return nil, err
		}
		m.Power = mt
		m.coreFreq = make([]int, cfg.Mem.Cores)
	}
	return m, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AttachTracer wires a tracer through every layer of the machine:
// the event engine (dispatch/blocked events), the memory system (bus,
// DRAM banks, L3) and the per-core tracks the threading runtime and
// controller emit onto. Call it after New and before the run starts;
// attaching nil is a no-op and the machine stays untraced. Tracing
// never perturbs the simulation — a traced run and an untraced run of
// the same configuration are cycle-identical.
func (m *Machine) AttachTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	m.Trace = t
	m.Eng.SetTracer(t)
	m.Mem.SetTracer(t)
	if t.Wants(trace.CatSync) {
		m.coreTracks = make([]trace.TrackID, m.Cores())
		for c := range m.coreTracks {
			m.coreTracks[c] = t.Track(fmt.Sprintf("core-%d", c))
		}
	}
}

// AttachChecker wires the invariant harness through the machine: the
// memory system's queue audits and coherence checks plus the
// per-context cycle-conservation ledgers. Call it after New and before
// the run starts; attaching nil (or a disabled checker) is a no-op.
// Like tracing, checking never perturbs the simulation — a checked run
// and an unchecked run of the same configuration are cycle-identical.
func (m *Machine) AttachChecker(ck *invariant.Checker) {
	if !ck.Enabled() {
		return
	}
	m.Check = ck
	m.Mem.SetChecker(ck)
	m.ledgers = make([]invariant.Ledger, len(m.ctxBusy))
	m.occupiedAt = make([]uint64, len(m.ctxBusy))
}

// ContextLedger reports the conservation ledger for a hardware
// context, or nil when the harness is disabled (a nil *Ledger is
// no-op-safe).
func (m *Machine) ContextLedger(ctx int) *invariant.Ledger {
	if m.ledgers == nil {
		return nil
	}
	return &m.ledgers[ctx]
}

// FinishCheck runs the machine's end-of-run invariants (the memory
// system's conservation, queueing and coherence checks, plus the
// per-team conservation and bus-partition rules when the machine has
// teams). Call it after the workload completes, at quiescence, with
// the cycle the run ended at.
func (m *Machine) FinishCheck(end uint64) {
	if m.Check.Enabled() {
		m.Mem.FinishCheck(end)
		m.checkTeams()
		m.checkPower(end)
	}
}

// powerBudgetSlack is the relative slack "power-budget-compliance"
// allows over the declared budget: decision-point transitions and the
// single-threaded training prefix execute outside the steady budgeted
// regime, so end-of-run average power may overshoot marginally.
const powerBudgetSlack = 0.02

// checkPower verifies the end-of-run energy-accounting invariants of
// a tracked (P-state ladder) machine:
//
//   - "power-state-residency": per core, the per-state wall
//     residencies partition the run exactly — they sum to the sealed
//     window, and no state's active residency exceeds its wall
//     residency. A dropped P-state transition loses residency here.
//   - "power-energy-conservation": the meter's reported energy equals
//     an independent re-derivation of Σ state-residency × table power
//     from the raw residencies and the machine config's own ladder
//     rows. A skewed power table in the meter's accounting lands here.
//   - "power-budget-compliance": when a budget was declared
//     (SetPowerBudget), average chip power over the run stays within
//     budget × (1 + slack).
func (m *Machine) checkPower(now uint64) {
	if !m.Power.Tracked() {
		return
	}
	m.Power.Seal(now)
	active := m.Power.ActiveByState()
	wall := m.Power.WallByState()

	for c := 0; c < m.Cores(); c++ {
		var sum uint64
		for s := range wall[c] {
			sum += wall[c][s]
			m.Check.Pass(1)
			if active[c][s] > wall[c][s] {
				m.Check.Failf("power-state-residency", now,
					"core %d state %d: active residency %d exceeds wall residency %d",
					c, s, active[c][s], wall[c][s])
			}
		}
		m.Check.Pass(1)
		if sum != now {
			m.Check.Failf("power-state-residency", now,
				"core %d: state wall residencies sum to %d != run window %d (a P-state transition was dropped?)",
				c, sum, now)
		}
	}

	// Re-derive energy from the raw residencies and the config's
	// ladder — deliberately not via the meter's table, so an
	// accounting bug in the meter (skewed rows) cannot agree with
	// itself.
	var want float64
	for s, st := range m.Cfg.Freq.States {
		var act, wl uint64
		for c := 0; c < m.Cores(); c++ {
			act += active[c][s]
			wl += wall[c][s]
		}
		idle := uint64(0)
		if wl > act {
			idle = wl - act
		}
		want += float64(act)*st.Active + float64(idle)*st.Idle
	}
	got := m.Power.Energy(now)
	m.Check.Pass(1)
	if !closeRel(got.Total, want, 1e-9) {
		m.Check.Failf("power-energy-conservation", now,
			"reported energy %.6f != Σ state-residency × table power %.6f", got.Total, want)
	}

	if m.powerBudget > 0 {
		m.Check.Pass(1)
		if got.AvgPower > m.powerBudget*(1+powerBudgetSlack) {
			m.Check.Failf("power-budget-compliance", now,
				"average chip power %.4f exceeds budget %.4f (+%.0f%% slack)",
				got.AvgPower, m.powerBudget, 100*powerBudgetSlack)
		}
	}
}

// closeRel reports near-equality under relative tolerance (absolute
// near zero).
func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > a {
		scale = b
	}
	if scale < 1 {
		return d <= tol
	}
	return d <= tol*scale
}

// FaultTeamFoldSkew arms a deliberate fault for the mutation tests:
// every context release under-folds d busy cycles into the owning
// team's conservation ledger.
func (m *Machine) FaultTeamFoldSkew(d uint64) { m.faultTeamFoldSkew = d }

// checkTeams verifies the per-team end-of-run invariants:
//
//   - "team-conservation": each team's folded busy+stall+sync+idle
//     ledger equals the sum of its contexts' occupancy windows — the
//     per-context conservation law survives aggregation by tenant
//     (only meaningful when the per-context ledgers are armed).
//   - "team-bus-partition": the per-team bus busy counters sum to the
//     machine-global bus busy counter — every transferred line is
//     attributed to exactly one tenant.
func (m *Machine) checkTeams() {
	if len(m.teams) == 0 {
		return
	}
	now := m.Eng.Now()
	var teamBus uint64
	for _, t := range m.teams {
		teamBus += t.attr.BusBusy.Read()
		if m.ledgers == nil {
			continue
		}
		m.Check.Pass(1)
		if t.led.Total() != t.windows {
			m.Check.Failf("team-conservation", now,
				"team %d (%q): folded busy %d + stall %d + sync %d + idle %d = %d != occupancy windows %d",
				t.ID, t.Name, t.led.Busy, t.led.Stall, t.led.Sync, t.led.Idle, t.led.Total(), t.windows)
		}
	}
	m.Check.Pass(1)
	if global := m.Ctrs.Counter(counters.BusBusyCycles).Read(); teamBus != global {
		m.Check.Failf("team-bus-partition", now,
			"per-team bus busy cycles sum to %d != machine bus busy counter %d", teamBus, global)
	}
}

// CoreTrack reports the trace track for a core's synchronization
// spans. Only meaningful while a tracer with trace.CatSync is
// attached (callers gate on m.Trace.Wants).
func (m *Machine) CoreTrack(core int) trace.TrackID { return m.coreTracks[core] }

// Cores reports the number of cores on the chip.
func (m *Machine) Cores() int { return m.Cfg.Mem.Cores }

// Contexts reports the number of hardware thread contexts — the
// maximum team size (equals Cores on the paper's no-SMT machine).
func (m *Machine) Contexts() int { return m.Cfg.Mem.Cores * m.Cfg.SMTContexts }

// CoreOf maps a hardware context to its core. Contexts are numbered
// so that a team of up to Cores threads spreads one per core before
// any core hosts a second context (the placement every OS uses).
func (m *Machine) CoreOf(ctx int) int { return ctx % m.Cfg.Mem.Cores }

// Alloc reserves simulated address space (see mem.System.Alloc).
func (m *Machine) Alloc(size int) uint64 { return m.Mem.Alloc(size) }

// OccupyContext marks a hardware context occupied by a thread at
// cycle now. A core becomes active — and starts accruing power — when
// its first context is occupied. Double occupancy is a runtime bug
// and panics. Returns the context's core.
func (m *Machine) OccupyContext(ctx int, now uint64) (core int) {
	if m.ctxBusy[ctx] {
		panic(fmt.Sprintf("machine: context %d already occupied", ctx))
	}
	m.ctxBusy[ctx] = true
	m.ctxSince[ctx] = now
	if m.ledgers != nil {
		m.ledgers[ctx] = invariant.Ledger{}
		m.occupiedAt[ctx] = now
	}
	core = m.CoreOf(ctx)
	if m.coreLoad[core] == 0 {
		m.coreSince[core] = now
	}
	m.coreLoad[core]++
	return core
}

// ReleaseContext marks a context free at cycle now; when the core's
// last context leaves, its active interval is charged to the power
// meter.
func (m *Machine) ReleaseContext(ctx int, now uint64) {
	if !m.ctxBusy[ctx] {
		panic(fmt.Sprintf("machine: releasing idle context %d", ctx))
	}
	m.ctxBusy[ctx] = false
	if m.ledgers != nil {
		m.ledgers[ctx].CheckConservation(m.Check, ctx, m.occupiedAt[ctx], now)
	}
	if t := m.ctxTeam[ctx]; t != nil {
		t.ctxActive += now - m.ctxSince[ctx]
		if m.ledgers != nil {
			led := m.ledgers[ctx]
			t.led.Busy += led.Busy - m.faultTeamFoldSkew
			t.led.Stall += led.Stall
			t.led.Sync += led.Sync
			t.led.Idle += led.Idle
			t.windows += now - m.occupiedAt[ctx]
		}
	}
	core := m.CoreOf(ctx)
	m.coreLoad[core]--
	if m.coreLoad[core] == 0 {
		m.Power.AddActive(core, m.coreSince[core], now)
		m.coreFreed[core] = now
	}
}

// ProgramDone records that a team's program completed at cycle now.
// thread.RunTeams calls it as each master finishes, so once the run is
// over it holds the run's end.
func (m *Machine) ProgramDone(now uint64) { m.end = now }

// CoreLoad reports how many contexts are active on a core — the
// divisor for shared issue width under SMT.
func (m *Machine) CoreLoad(core int) int { return m.coreLoad[core] }

// BusUtilization reports the fraction of the window during which the
// off-chip data bus carried data, given busy-cycle samples at the
// window's edges.
func BusUtilization(busyDelta, windowCycles uint64) float64 {
	if windowCycles == 0 {
		return 0
	}
	u := float64(busyDelta) / float64(windowCycles)
	if u > 1 {
		u = 1
	}
	return u
}

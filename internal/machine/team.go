package machine

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/mem"
)

// Team is one tenant of a multi-tenant machine: a set of hardware
// contexts owned exclusively by one program, with its own counter
// file. The threading runtime places a team's threads only on its
// contexts; the team's counter set accumulates the events its threads
// cause (critical-section cycles, its share of bus traffic), so each
// tenant's FDT controller samples its own behaviour while the shared
// structures — L3, ring, bus, DRAM — see the combined traffic of every
// tenant.
//
// What is per-team versus machine-global is deliberate (DESIGN.md
// Section 12): critical-section counters are per-team because a real
// runtime's lock instrumentation is private to the program, and the
// controller must never mistake a co-runner's synchronization for its
// own. The bus busy counter exists in both scopes: the per-team copy
// attributes each transfer to the tenant whose access caused it (the
// partition the "team-bus-partition" invariant checks), while the
// controller keeps reading the machine-global counter — a socket-wide
// PMU counter like BUS_DRDY_CLOCKS cannot filter by requestor, and
// that is exactly why co-runner traffic shifts Eq. 5's decision.
type Team struct {
	// ID is the team's index on its machine.
	ID int
	// Name labels the team in traces and reports ("t0:pagemine");
	// empty for the default whole-machine team.
	Name string
	// Ctrs is the team's private counter file.
	Ctrs *counters.Set

	m      *Machine
	ctxs   []int
	prefix string

	// Cached team counters for the runtime's hot charge sites.
	csCycles, csWait, csEntries, barrierWait *counters.Counter
	// attr hands the memory system the team's bus-attribution
	// counters (see mem.TeamCtrs).
	attr mem.TeamCtrs

	// ctxActive accumulates released context-occupancy cycles — the
	// team's share of the power metric's active time.
	ctxActive uint64
	// led and windows fold the team's released context ledgers and
	// occupancy windows for the "team-conservation" invariant
	// (meaningful only on checked runs).
	led     invariant.Ledger
	windows uint64
}

// newTeam registers a team owning the given contexts. Contexts must
// exist, be unowned, and not be occupied mid-run.
func (m *Machine) newTeam(name string, ctxs []int) (*Team, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("machine: team %q with no contexts", name)
	}
	for _, c := range ctxs {
		if c < 0 || c >= len(m.ctxBusy) {
			return nil, fmt.Errorf("machine: team %q context %d out of range [0,%d)", name, c, len(m.ctxBusy))
		}
		if m.ctxTeam[c] != nil {
			return nil, fmt.Errorf("machine: context %d already owned by team %q", c, m.ctxTeam[c].Name)
		}
		if m.ctxBusy[c] {
			return nil, fmt.Errorf("machine: context %d occupied while forming team %q", c, name)
		}
	}
	ctrs := counters.NewSet()
	t := &Team{
		ID:          len(m.teams),
		Name:        name,
		Ctrs:        ctrs,
		m:           m,
		ctxs:        append([]int(nil), ctxs...),
		csCycles:    ctrs.Counter(CtrTeamCSCycles),
		csWait:      ctrs.Counter(CtrTeamCSWaitCycles),
		csEntries:   ctrs.Counter(CtrTeamCSEntries),
		barrierWait: ctrs.Counter(CtrTeamBarrierWaitCycles),
	}
	t.attr = mem.TeamCtrs{
		BusBusy: ctrs.Counter(counters.BusBusyCycles),
		BusTxns: ctrs.Counter(counters.BusTransactions),
	}
	if name != "" {
		t.prefix = name + ":"
	}
	m.teams = append(m.teams, t)
	for _, c := range ctxs {
		m.ctxTeam[c] = t
	}
	return t, nil
}

// NewTeam registers a team owning the given hardware contexts, in
// placement order. Most callers want SplitTeams or DefaultTeam;
// NewTeam exists for custom partitions.
func (m *Machine) NewTeam(name string, ctxs []int) (*Team, error) {
	return m.newTeam(name, ctxs)
}

// DefaultTeam returns the whole-machine team, creating it on first
// use. Idempotent — a restored or reused machine keeps its team — and
// the single-team path every pre-multi-tenant caller takes: the
// default team owns every context in the legacy placement order, and
// its thread names carry no prefix, so a default-team run is
// indistinguishable from a run on the un-partitioned machine.
func (m *Machine) DefaultTeam() *Team {
	if len(m.teams) == 1 && len(m.teams[0].ctxs) == len(m.ctxBusy) {
		return m.teams[0]
	}
	if len(m.teams) > 0 {
		panic("machine: DefaultTeam on a partitioned machine")
	}
	ctxs := make([]int, len(m.ctxBusy))
	for i := range ctxs {
		ctxs[i] = i
	}
	t, err := m.newTeam("", ctxs)
	if err != nil {
		panic(err)
	}
	return t
}

// SplitTeams partitions the machine among len(names) teams under the
// mapping policy and registers one team per name, in order.
func (m *Machine) SplitTeams(mp Mapping, names []string) ([]*Team, error) {
	if len(m.teams) > 0 {
		return nil, fmt.Errorf("machine: SplitTeams on a machine with %d teams", len(m.teams))
	}
	n := len(names)
	out := make([]*Team, 0, n)
	for t := 0; t < n; t++ {
		ctxs, err := m.Cfg.Partition(mp, t, n)
		if err != nil {
			return nil, err
		}
		team, err := m.newTeam(names[t], ctxs)
		if err != nil {
			return nil, err
		}
		out = append(out, team)
	}
	return out, nil
}

// Teams lists the machine's registered teams in creation order.
func (m *Machine) Teams() []*Team {
	out := make([]*Team, len(m.teams))
	copy(out, m.teams)
	return out
}

// TeamOf reports the team owning a hardware context (nil if unowned).
func (m *Machine) TeamOf(ctx int) *Team { return m.ctxTeam[ctx] }

// Size reports the team's thread capacity (its context count).
func (t *Team) Size() int { return len(t.ctxs) }

// Ctx maps a team slot to its hardware context: slot i is the i-th
// context in the team's placement order.
func (t *Team) Ctx(slot int) int { return t.ctxs[slot] }

// ProcName prefixes a simulation-process name with the team's label;
// the default team's names are unprefixed (the legacy spelling).
func (t *Team) ProcName(base string) string { return t.prefix + base }

// MemAttr hands out the team's bus-attribution handle for the memory
// system (installed on each thread's CPU).
func (t *Team) MemAttr() *mem.TeamCtrs { return &t.attr }

// ContextActiveCycles reports the cycles the team's threads held
// hardware contexts — the team's share of active time for per-team
// power attribution. On a machine without SMT sharing this equals the
// team's active-core cycles exactly; when teams share cores on
// separate SMT planes it decomposes the overlap by occupancy.
func (t *Team) ContextActiveCycles() uint64 { return t.ctxActive }

// ChargeCSWait adds critical-section wait cycles to the team's
// counter file (nil-safe: a nil team is the un-teamed runtime).
func (t *Team) ChargeCSWait(d uint64) {
	if t != nil {
		t.csWait.Add(d)
	}
}

// ChargeCSEntry counts one critical-section execution.
func (t *Team) ChargeCSEntry() {
	if t != nil {
		t.csEntries.Inc()
	}
}

// ChargeCS adds lock-held cycles to the team's counter file.
func (t *Team) ChargeCS(d uint64) {
	if t != nil {
		t.csCycles.Add(d)
	}
}

// ChargeBarrierWait adds barrier wait cycles to the team's counter
// file.
func (t *Team) ChargeBarrierWait(d uint64) {
	if t != nil {
		t.barrierWait.Add(d)
	}
}

// Per-team counter names. They mirror the thread runtime's global
// counter names (thread.CtrCSCycles etc.; the string values are
// identical so one name reads the same quantity in either scope, and
// the constants live here because the thread package already imports
// machine).
const (
	CtrTeamCSCycles          = "sync.cs_cycles"
	CtrTeamCSWaitCycles      = "sync.cs_wait_cycles"
	CtrTeamCSEntries         = "sync.cs_entries"
	CtrTeamBarrierWaitCycles = "sync.barrier_wait_cycles"
)

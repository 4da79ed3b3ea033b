// Package power implements the paper's on-chip power metric
// (Section 3.1): "we count the number of cores that are active in a
// given cycle and the power is computed as the average of this value
// over the entire execution time."
//
// A core is active from the moment a thread is placed on it until the
// thread leaves it — spinning at a lock or barrier counts as active,
// which is what makes extraneous threads expensive. Cores with no
// thread are power-gated and contribute nothing.
package power

import "fmt"

// Meter integrates active-core time per core. A meter built with
// NewMeter is the paper's flat metric exactly; NewMeterTable
// additionally tracks per-(core, P-state) residencies against a power
// table (see table.go), from which Energy derives a table-driven
// energy accounting.
type Meter struct {
	perCore []uint64
	cores   int

	// Tracked-mode state (all nil/zero on a flat meter).
	table         []Row
	activeByState [][]uint64
	wallByState   [][]uint64
	state         []int
	stateSince    []uint64

	// Fault knobs for the mutation tests: faultTableSkew multiplies
	// the table's Active rows inside Energy's accounting (a "skewed
	// power table" bug the energy-conservation invariant must catch);
	// faultDropTransition makes SetState lose the closing of the
	// outgoing state's residency interval (a "dropped P-state
	// transition" the state-residency invariant must catch).
	faultTableSkew      float64
	faultDropTransition bool
}

// NewMeter returns a meter for a machine with the given core count.
func NewMeter(cores int) *Meter {
	return &Meter{perCore: make([]uint64, cores), cores: cores}
}

// NewMeterTable returns a meter tracking residencies against a
// validated power table. Every core starts in state 0 (nominal).
func NewMeterTable(cores int, t Table) (*Meter, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := NewMeter(cores)
	m.table = append([]Row(nil), t.Rows...)
	m.activeByState = make([][]uint64, cores)
	m.wallByState = make([][]uint64, cores)
	m.state = make([]int, cores)
	m.stateSince = make([]uint64, cores)
	for c := 0; c < cores; c++ {
		m.activeByState[c] = make([]uint64, len(t.Rows))
		m.wallByState[c] = make([]uint64, len(t.Rows))
	}
	return m, nil
}

// Tracked reports whether the meter tracks per-state residencies
// (built by NewMeterTable).
func (m *Meter) Tracked() bool { return m.table != nil }

// SetState moves a core to a new P-state at cycle now, closing the
// outgoing state's wall-residency interval. The caller (the machine)
// must flush any open active interval on the core first, so active
// residency never spans a transition. No-op on flat meters and on
// transitions to the current state.
func (m *Meter) SetState(core, state int, now uint64) {
	if m.table == nil {
		if state == 0 {
			return
		}
		panic(fmt.Sprintf("power: SetState(%d) on a flat meter", state))
	}
	if state < 0 || state >= len(m.table) {
		panic(fmt.Sprintf("power: state %d out of range [0,%d)", state, len(m.table)))
	}
	cur := m.state[core]
	if state == cur {
		return
	}
	if now < m.stateSince[core] {
		panic(fmt.Sprintf("power: SetState at %d before core %d state start %d", now, core, m.stateSince[core]))
	}
	if !m.faultDropTransition {
		m.wallByState[core][cur] += now - m.stateSince[core]
	}
	m.stateSince[core] = now
	m.state[core] = state
}

// Seal closes every core's open wall-residency interval at cycle now,
// making the per-state residencies complete over [0, now). Idempotent
// and monotone: sealing again at the same or a later time extends the
// current state's residency, so end-of-run checks and reports may
// both seal. No-op on flat meters.
func (m *Meter) Seal(now uint64) {
	if m.table == nil {
		return
	}
	for c := 0; c < m.cores; c++ {
		if now < m.stateSince[c] {
			panic(fmt.Sprintf("power: Seal at %d before core %d state start %d", now, c, m.stateSince[c]))
		}
		m.wallByState[c][m.state[c]] += now - m.stateSince[c]
		m.stateSince[c] = now
	}
}

// ActiveByState reports per-core, per-state active-cycle residencies
// (a deep copy; nil on flat meters).
func (m *Meter) ActiveByState() [][]uint64 { return copy2d(m.activeByState) }

// WallByState reports per-core, per-state wall-cycle residencies as
// of the last Seal (a deep copy; nil on flat meters).
func (m *Meter) WallByState() [][]uint64 { return copy2d(m.wallByState) }

func copy2d(src [][]uint64) [][]uint64 {
	if src == nil {
		return nil
	}
	out := make([][]uint64, len(src))
	for i, row := range src {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

// Energy seals the meter at window and reports the table-driven
// energy accounting: for every state, active residency times the
// row's Active power plus idle (wall minus active) residency times
// its Idle power. Only meaningful on tracked meters; a flat meter
// reports the flat-table equivalence (Total == ActiveCoreCycles).
func (m *Meter) Energy(window uint64) Energy {
	if m.table == nil {
		total := float64(m.ActiveCoreCycles())
		e := Energy{Total: total, Window: window}
		if window > 0 {
			e.AvgPower = total / float64(window)
		}
		return e
	}
	m.Seal(window)
	e := Energy{Window: window, States: make([]StateEnergy, len(m.table))}
	for s, r := range m.table {
		active := r.Active
		if m.faultTableSkew != 0 {
			active *= 1 + m.faultTableSkew
		}
		se := StateEnergy{Name: r.Name}
		for c := 0; c < m.cores; c++ {
			se.ActiveCycles += m.activeByState[c][s]
			se.WallCycles += m.wallByState[c][s]
		}
		idle := uint64(0)
		if se.WallCycles > se.ActiveCycles {
			idle = se.WallCycles - se.ActiveCycles
		}
		se.Energy = float64(se.ActiveCycles)*active + float64(idle)*r.Idle
		e.Total += se.Energy
		e.States[s] = se
	}
	if window > 0 {
		e.AvgPower = e.Total / float64(window)
	}
	return e
}

// FaultTableSkew arms a deliberate energy-accounting fault for the
// mutation tests: Energy computes with Active rows scaled by (1+f).
func (m *Meter) FaultTableSkew(f float64) { m.faultTableSkew = f }

// FaultDropTransition arms a deliberate residency-accounting fault
// for the mutation tests: SetState forgets to close the outgoing
// state's wall interval, losing residency.
func (m *Meter) FaultDropTransition() { m.faultDropTransition = true }

// Cores reports the number of cores metered.
func (m *Meter) Cores() int { return m.cores }

// AddActive records that core was active for the half-open cycle
// interval [from, to). Intervals on the same core must not overlap;
// the threading runtime guarantees one thread per core (no SMT, as in
// the paper).
func (m *Meter) AddActive(core int, from, to uint64) {
	if core < 0 || core >= m.cores {
		panic(fmt.Sprintf("power: core %d out of range [0,%d)", core, m.cores))
	}
	if to < from {
		panic(fmt.Sprintf("power: negative interval [%d,%d) on core %d", from, to, core))
	}
	m.perCore[core] += to - from
	if m.activeByState != nil {
		m.activeByState[core][m.state[core]] += to - from
	}
}

// AddActiveCycles credits core with cycles of activity without an
// interval: the sampled-execution runtime's analytic extrapolation,
// which knows how many active cycles a skipped region contributes but
// not a concrete [from, to) span.
func (m *Meter) AddActiveCycles(core int, cycles uint64) {
	if core < 0 || core >= m.cores {
		panic(fmt.Sprintf("power: core %d out of range [0,%d)", core, m.cores))
	}
	m.perCore[core] += cycles
	if m.activeByState != nil {
		m.activeByState[core][m.state[core]] += cycles
	}
}

// ActiveCoreCycles reports the total core-cycles of activity.
func (m *Meter) ActiveCoreCycles() uint64 {
	var sum uint64
	for _, v := range m.perCore {
		sum += v
	}
	return sum
}

// PerCore reports per-core active cycles (a copy).
func (m *Meter) PerCore() []uint64 {
	out := make([]uint64, len(m.perCore))
	copy(out, m.perCore)
	return out
}

// AverageActiveCores reports the paper's power figure: active core
// cycles divided by the execution window. A window of zero yields 0.
func (m *Meter) AverageActiveCores(window uint64) float64 {
	if window == 0 {
		return 0
	}
	return float64(m.ActiveCoreCycles()) / float64(window)
}

// Reset clears all accumulated activity (and, on tracked meters, all
// state residencies; cores return to the nominal state at cycle 0).
func (m *Meter) Reset() {
	for i := range m.perCore {
		m.perCore[i] = 0
	}
	for c := range m.activeByState {
		for s := range m.activeByState[c] {
			m.activeByState[c][s] = 0
			m.wallByState[c][s] = 0
		}
		m.state[c] = 0
		m.stateSince[c] = 0
	}
}

package machine

import (
	"fmt"
	"strconv"
	"strings"

	"fdt/internal/power"
)

// This file gives the machine a discrete per-core P-state ladder
// (DVFS). Each state pairs a core frequency with a power-table row;
// state 0 is the nominal (highest) frequency, and a core in state s
// retires compute at MHz_s / MHz_0 of nominal speed while the memory
// system — bus, DRAM, caches — stays wall-clock-anchored. Lowering a
// core's frequency therefore shifts the compute/bus balance: a
// kernel's single-thread bus utilization BU_1 = BusBusy / T_1 drops
// as T_1 dilates, which widens Eq. 5's bandwidth-bound thread count.
// An empty ladder (the default) is the single-frequency machine of
// PR 9, bit-identical.

// FreqState is one rung of the P-state ladder.
type FreqState struct {
	// Name labels the state in reports and decisions ("perf", "eco");
	// ParseLadder derives "f<MHz>" names.
	Name string
	// MHz is the core clock in this state. States are ordered by
	// strictly descending MHz; state 0 is nominal.
	MHz int
	// Active and Idle are the state's power-table row, in
	// nominal-active-core units (see power.Row).
	Active float64
	Idle   float64
}

// FreqConfig is a machine's P-state ladder. The zero value (no
// states) is the trivial single-frequency machine.
type FreqConfig struct {
	States []FreqState
}

// Trivial reports whether the ladder is absent: the machine runs at
// one implicit nominal frequency with the legacy flat power meter,
// and run-cache keys carry no frequency fragment.
func (fc FreqConfig) Trivial() bool { return len(fc.States) == 0 }

// Validate checks ladder sanity: strictly descending positive MHz,
// unique non-empty names, and a valid power-table row per state.
func (fc FreqConfig) Validate() error {
	if fc.Trivial() {
		return nil
	}
	if err := fc.Table().Validate(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, s := range fc.States {
		if s.MHz <= 0 {
			return fmt.Errorf("machine: freq state %d (%q): MHz = %d, want > 0", i, s.Name, s.MHz)
		}
		if i > 0 && s.MHz >= fc.States[i-1].MHz {
			return fmt.Errorf("machine: freq ladder not strictly descending at state %d (%d MHz after %d MHz)",
				i, s.MHz, fc.States[i-1].MHz)
		}
		if s.Name == "" {
			return fmt.Errorf("machine: freq state %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("machine: duplicate freq state name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Table projects the ladder's power rows as a power.Table.
func (fc FreqConfig) Table() power.Table {
	rows := make([]power.Row, len(fc.States))
	for i, s := range fc.States {
		rows[i] = power.Row{Name: s.Name, Active: s.Active, Idle: s.Idle}
	}
	return power.Table{Rows: rows}
}

// Key fingerprints the ladder for run-cache content addressing.
// Only called on non-trivial ladders — a trivial ladder contributes
// nothing to the key, mirroring the exact-mode rule for Mode.key.
func (fc FreqConfig) Key() string {
	parts := make([]string, len(fc.States))
	for i, s := range fc.States {
		parts[i] = fmt.Sprintf("%s:%d:%g:%g", s.Name, s.MHz, s.Active, s.Idle)
	}
	return strings.Join(parts, ",")
}

// defaultLadderMHz are the rungs DefaultLadder and the CLIs'
// -power-budget default use.
var defaultLadderMHz = []int{2000, 1600, 1200, 800}

// DefaultLadder returns a four-state ladder from 2000 MHz down to
// 800 MHz with a cubic active-power law (P ∝ f³, the classic DVFS
// approximation with voltage scaled alongside frequency) and a linear
// idle (leakage) law floored well below active power.
func DefaultLadder() FreqConfig {
	fc, err := LadderFromMHz(defaultLadderMHz)
	if err != nil {
		panic(err)
	}
	return fc
}

// LadderFromMHz builds a ladder from a strictly descending MHz list,
// deriving names ("f2000") and the power table: Active = (f/f0)³
// (cubic DVFS law, nominal = 1) and Idle = 0.1·(f/f0).
func LadderFromMHz(mhz []int) (FreqConfig, error) {
	if len(mhz) == 0 {
		return FreqConfig{}, nil
	}
	f0 := float64(mhz[0])
	fc := FreqConfig{States: make([]FreqState, len(mhz))}
	for i, f := range mhz {
		rel := float64(f) / f0
		fc.States[i] = FreqState{
			Name:   fmt.Sprintf("f%d", f),
			MHz:    f,
			Active: rel * rel * rel,
			Idle:   0.1 * rel,
		}
	}
	if err := fc.Validate(); err != nil {
		return FreqConfig{}, err
	}
	return fc, nil
}

// ParseLadder parses a comma-separated MHz list ("2000,1600,800")
// into a ladder via LadderFromMHz. An empty string is the trivial
// ladder; the literal "default" is DefaultLadder.
func ParseLadder(s string) (FreqConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return FreqConfig{}, nil
	}
	if s == "default" {
		return DefaultLadder(), nil
	}
	var mhz []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return FreqConfig{}, fmt.Errorf("machine: bad ladder entry %q: want an integer MHz value", tok)
		}
		mhz = append(mhz, v)
	}
	return LadderFromMHz(mhz)
}

// ResolveDVFS resolves a (power budget, ladder) pair from the CLIs'
// flags or a daemon job: the budget must be non-negative, and a
// positive budget with no explicit ladder implies DefaultLadder (a
// budget without P-states could only shed threads — the search the
// flag exists to widen). A zero budget keeps the ladder as given; the
// trivial ladder is the single-frequency machine, bit-identical to
// the pre-DVFS paths.
func ResolveDVFS(budget float64, fc FreqConfig) (FreqConfig, error) {
	if budget < 0 {
		return FreqConfig{}, fmt.Errorf("machine: power budget %g, want >= 0 (0 = unconstrained)", budget)
	}
	if budget > 0 && fc.Trivial() {
		fc = DefaultLadder()
	}
	return fc, nil
}

// WithFreq returns a copy of the config with the P-state ladder
// replaced.
func (c Config) WithFreq(fc FreqConfig) Config {
	c.Freq = fc
	return c
}

// FreqStates exposes the machine's ladder (nil when trivial).
func (m *Machine) FreqStates() []FreqState { return m.Cfg.Freq.States }

// CoreFreq reports a core's current P-state index (0 on trivial
// ladders).
func (m *Machine) CoreFreq(core int) int {
	if m.coreFreq == nil {
		return 0
	}
	return m.coreFreq[core]
}

// FreqScale reports a core's current cycle-time multiplier as the
// exact rational nominalMHz / currentMHz: compute that takes d cycles
// at nominal takes d·num/den wall cycles in the core's current state.
func (m *Machine) FreqScale(core int) (num, den uint64) {
	s := m.CoreFreq(core)
	if s == 0 {
		return 1, 1
	}
	return uint64(m.Cfg.Freq.States[0].MHz), uint64(m.Cfg.Freq.States[s].MHz)
}

// SetCoreFreq moves one core to P-state s at cycle now. If the core
// is mid-activity its open power interval is flushed first, so active
// residency never spans a state transition. No-op on trivial ladders
// (s must be 0) and on transitions to the current state.
func (m *Machine) SetCoreFreq(core, s int, now uint64) {
	if m.coreFreq == nil {
		if s != 0 {
			panic(fmt.Sprintf("machine: SetCoreFreq(%d) on a trivial ladder", s))
		}
		return
	}
	if s < 0 || s >= len(m.Cfg.Freq.States) {
		panic(fmt.Sprintf("machine: freq state %d out of range [0,%d)", s, len(m.Cfg.Freq.States)))
	}
	if s == m.coreFreq[core] {
		return
	}
	if m.coreLoad[core] > 0 {
		m.Power.AddActive(core, m.coreSince[core], now)
		m.coreSince[core] = now
	}
	m.Power.SetState(core, s, now)
	m.coreFreq[core] = s
}

// SetFreq moves every core to P-state s at cycle now — the chip-wide
// DVFS action the FDT controller takes at decision points.
func (m *Machine) SetFreq(s int, now uint64) {
	for core := 0; core < m.Cores(); core++ {
		m.SetCoreFreq(core, s, now)
	}
}

// SetPowerBudget declares the run's power budget (in
// nominal-active-core units) to the invariant harness: the
// end-of-run "power-budget-compliance" rule verifies average chip
// power stayed within it (plus transition slack). Zero clears it.
func (m *Machine) SetPowerBudget(b float64) { m.powerBudget = b }

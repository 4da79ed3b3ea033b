package power

import (
	"fmt"
	"math"
)

// This file extends the meter from active-core counting to a
// table-driven energy model: a machine with an explicit P-state
// ladder meters per-(core, state) residencies, and energy is the sum
// over states of residency times the state's table power. Powers are
// expressed in nominal-active-core units — the unit of the paper's
// AvgActiveCores metric — so a flat table (Active 1, Idle 0) makes
// total energy coincide exactly with ActiveCoreCycles.

// Row is one P-state's power-table entry.
type Row struct {
	// Name labels the state in reports ("perf", "eco", "f1600").
	Name string
	// Active is the power an active core draws in this state, in
	// nominal-active-core units (the nominal state's Active is 1 by
	// convention; a cubic DVFS law makes lower states cheaper).
	Active float64
	// Idle is the power an unoccupied (clock-gated) core draws in this
	// state. The legacy single-frequency meter models power-gated idle
	// cores (zero draw); an explicit table may charge leakage.
	Idle float64
}

// Table is a P-state power table, one row per ladder state, indexed
// by state. Row 0 is the nominal state.
type Table struct {
	Rows []Row
}

// Validate checks the physical sanity of the table: at least one row,
// positive active power, non-negative idle power, idle at or below
// active.
func (t Table) Validate() error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("power: table has no rows")
	}
	for i, r := range t.Rows {
		if !(r.Active > 0) || math.IsInf(r.Active, 0) || math.IsNaN(r.Active) {
			return fmt.Errorf("power: row %d (%q): Active = %v, want finite > 0", i, r.Name, r.Active)
		}
		if r.Idle < 0 || math.IsInf(r.Idle, 0) || math.IsNaN(r.Idle) {
			return fmt.Errorf("power: row %d (%q): Idle = %v, want finite >= 0", i, r.Name, r.Idle)
		}
		if r.Idle > r.Active {
			return fmt.Errorf("power: row %d (%q): Idle %v exceeds Active %v", i, r.Name, r.Idle, r.Active)
		}
	}
	return nil
}

// StateEnergy is one P-state's contribution to a run's energy.
type StateEnergy struct {
	// Name is the state's table row name.
	Name string `json:"name"`
	// ActiveCycles is the total core-cycles cores spent occupied in
	// this state; WallCycles the total core-cycles cores resided in it
	// (occupied or not). ActiveCycles <= WallCycles.
	ActiveCycles uint64 `json:"active_cycles"`
	WallCycles   uint64 `json:"wall_cycles"`
	// Energy is the state's energy: active residency times the row's
	// Active power plus idle residency times its Idle power.
	Energy float64 `json:"energy"`
}

// Energy is a tracked meter's end-of-run energy accounting, in
// nominal-core-cycle units (1 unit = one core active for one cycle in
// the nominal state).
type Energy struct {
	// Total is the run's energy; AvgPower is Total over the execution
	// window — the budget-comparable chip power, including idle draw.
	Total    float64 `json:"total"`
	AvgPower float64 `json:"avg_power"`
	// Window is the execution window the meter was sealed at.
	Window uint64 `json:"window"`
	// States itemizes per-state residencies and energies.
	States []StateEnergy `json:"states"`
}

// ChipPower evaluates the table's chip power with active of cores
// cores occupied in state s and the rest idle in the same state — the
// quantity a power budget constrains.
func (t Table) ChipPower(s, active, cores int) float64 {
	r := t.Rows[s]
	return float64(active)*r.Active + float64(cores-active)*r.Idle
}

// MaxActiveWithinBudget reports the largest number of occupied cores
// p such that ChipPower(s, p, cores) stays within budget, clamped to
// [0, cores]; 0 means even an idle chip in this state busts the
// budget's active headroom (budget below the idle floor). A budget
// <= 0 is unconstrained and reports cores.
func (t Table) MaxActiveWithinBudget(s, cores int, budget float64) int {
	if budget <= 0 {
		return cores
	}
	r := t.Rows[s]
	head := budget - float64(cores)*r.Idle
	if head < 0 {
		return 0
	}
	den := r.Active - r.Idle
	if den <= 0 {
		// Idle == Active: occupancy is free once the floor is paid.
		return cores
	}
	p := int(head/den + 1e-9)
	if p > cores {
		p = cores
	}
	if p < 0 {
		p = 0
	}
	return p
}

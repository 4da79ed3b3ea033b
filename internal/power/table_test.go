package power

// Table-driven edge cases for the P-state energy model, extending the
// flat meter's edge suite: degenerate ladders, budgets at and below
// the idle floor, and transitions that split residency intervals
// mid-window.

import (
	"math"
	"strings"
	"testing"
)

func TestTableValidateEdges(t *testing.T) {
	cases := []struct {
		name    string
		table   Table
		wantErr string // substring; empty = valid
	}{
		{name: "empty ladder", table: Table{}, wantErr: "no rows"},
		{name: "one-state ladder", table: Table{Rows: []Row{{Name: "nom", Active: 1, Idle: 0}}}},
		{
			name:    "zero active power",
			table:   Table{Rows: []Row{{Name: "x", Active: 0, Idle: 0}}},
			wantErr: "Active",
		},
		{
			name:    "NaN active power",
			table:   Table{Rows: []Row{{Name: "x", Active: math.NaN(), Idle: 0}}},
			wantErr: "Active",
		},
		{
			name:    "negative idle power",
			table:   Table{Rows: []Row{{Name: "x", Active: 1, Idle: -0.1}}},
			wantErr: "Idle",
		},
		{
			name:    "idle above active",
			table:   Table{Rows: []Row{{Name: "x", Active: 0.5, Idle: 0.6}}},
			wantErr: "exceeds",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.table.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestMaxActiveWithinBudgetEdges(t *testing.T) {
	tbl := Table{Rows: []Row{
		{Name: "nom", Active: 1, Idle: 0.1},
		{Name: "eco", Active: 0.216, Idle: 0.06},
	}}
	cases := []struct {
		name   string
		s      int
		cores  int
		budget float64
		want   int
	}{
		{name: "zero budget is unconstrained", s: 0, cores: 8, budget: 0, want: 8},
		{name: "negative budget is unconstrained", s: 0, cores: 8, budget: -3, want: 8},
		{name: "budget below idle floor", s: 0, cores: 8, budget: 0.5, want: 0},
		{name: "budget exactly the idle floor", s: 0, cores: 8, budget: 0.8, want: 0},
		{name: "one core of headroom", s: 0, cores: 8, budget: 1.7, want: 1},
		{name: "headroom rounds down", s: 0, cores: 8, budget: 2.5, want: 1},
		{name: "ample budget clamps to cores", s: 0, cores: 8, budget: 100, want: 8},
		{name: "low state stretches the budget", s: 1, cores: 8, budget: 1.7, want: 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tbl.MaxActiveWithinBudget(tc.s, tc.cores, tc.budget)
			if got != tc.want {
				t.Fatalf("MaxActiveWithinBudget(%d, %d, %g) = %d, want %d",
					tc.s, tc.cores, tc.budget, got, tc.want)
			}
			// The report must be self-consistent: the admitted occupancy
			// fits the budget, and one more core would bust it.
			if tc.budget > 0 && got > 0 {
				if pw := tbl.ChipPower(tc.s, got, tc.cores); pw > tc.budget+1e-12 {
					t.Fatalf("admitted occupancy %d draws %g > budget %g", got, pw, tc.budget)
				}
			}
			if tc.budget > 0 && got < tc.cores {
				if pw := tbl.ChipPower(tc.s, got+1, tc.cores); pw <= tc.budget {
					t.Fatalf("occupancy %d draws %g within budget %g but was rejected", got+1, pw, tc.budget)
				}
			}
		})
	}
}

// TestMeterTableEdges exercises the tracked meter's residency and
// energy accounting on degenerate and boundary scenarios.
func TestMeterTableEdges(t *testing.T) {
	flat := []Row{{Name: "nom", Active: 1, Idle: 0}}
	two := []Row{{Name: "nom", Active: 1, Idle: 0.1}, {Name: "eco", Active: 0.216, Idle: 0.06}}

	t.Run("empty ladder is rejected", func(t *testing.T) {
		if _, err := NewMeterTable(4, Table{}); err == nil {
			t.Fatal("NewMeterTable accepted an empty table")
		}
	})

	t.Run("one-state ladder matches the flat meter", func(t *testing.T) {
		m, err := NewMeterTable(2, Table{Rows: flat})
		if err != nil {
			t.Fatal(err)
		}
		m.AddActive(0, 0, 100)
		m.AddActive(1, 40, 60)
		e := m.Energy(100)
		if e.Total != float64(m.ActiveCoreCycles()) {
			t.Fatalf("flat one-state table: Energy %.6f != ActiveCoreCycles %d", e.Total, m.ActiveCoreCycles())
		}
		if want := 1.2; e.AvgPower != want {
			t.Fatalf("AvgPower = %g, want %g", e.AvgPower, want)
		}
	})

	t.Run("mid-window transition splits a residency interval", func(t *testing.T) {
		m, err := NewMeterTable(1, Table{Rows: two})
		if err != nil {
			t.Fatal(err)
		}
		// The core is occupied across the whole window; the machine
		// flushes the open active interval at the transition, so the
		// occupancy splits into per-state halves.
		m.AddActive(0, 0, 60)
		m.SetState(0, 1, 60)
		m.AddActive(0, 60, 100)
		e := m.Energy(100)
		if got := m.ActiveByState(); got[0][0] != 60 || got[0][1] != 40 {
			t.Fatalf("active residency = %v, want [60 40]", got[0])
		}
		if got := m.WallByState(); got[0][0] != 60 || got[0][1] != 40 {
			t.Fatalf("wall residency = %v, want [60 40]", got[0])
		}
		want := 60*1.0 + 40*0.216
		if math.Abs(e.Total-want) > 1e-12 {
			t.Fatalf("Energy = %.6f, want %.6f", e.Total, want)
		}
	})

	t.Run("idle residency draws idle power", func(t *testing.T) {
		m, err := NewMeterTable(2, Table{Rows: two})
		if err != nil {
			t.Fatal(err)
		}
		m.AddActive(0, 0, 50) // core 1 idle throughout
		e := m.Energy(100)
		want := 50*1.0 + 50*0.1 + 100*0.1
		if math.Abs(e.Total-want) > 1e-12 {
			t.Fatalf("Energy = %.6f, want %.6f", e.Total, want)
		}
	})

	t.Run("zero-length window", func(t *testing.T) {
		m, err := NewMeterTable(1, Table{Rows: two})
		if err != nil {
			t.Fatal(err)
		}
		e := m.Energy(0)
		if e.Total != 0 || e.AvgPower != 0 {
			t.Fatalf("empty window: Energy = %+v, want zero", e)
		}
	})

	t.Run("seal is idempotent", func(t *testing.T) {
		m, err := NewMeterTable(1, Table{Rows: two})
		if err != nil {
			t.Fatal(err)
		}
		m.AddActive(0, 0, 30)
		m.Seal(50)
		m.Seal(50)
		e := m.Energy(50)
		want := 30*1.0 + 20*0.1
		if math.Abs(e.Total-want) > 1e-12 {
			t.Fatalf("double seal: Energy = %.6f, want %.6f", e.Total, want)
		}
		if w := m.WallByState(); w[0][0] != 50 {
			t.Fatalf("double seal: wall residency %d, want 50", w[0][0])
		}
	})

	t.Run("flat meter rejects state changes", func(t *testing.T) {
		m := NewMeter(2)
		m.SetState(0, 0, 10) // no-op, allowed
		defer func() {
			if recover() == nil {
				t.Fatal("SetState(1) on a flat meter did not panic")
			}
		}()
		m.SetState(0, 1, 10)
	})
}

package machine

import (
	"fmt"
	"strings"
	"testing"

	"fdt/internal/invariant"
	"fdt/internal/sim"
)

func TestParseLadder(t *testing.T) {
	cases := []struct {
		in      string
		mhz     []int
		wantErr string
	}{
		{"", nil, ""},
		{"  ", nil, ""},
		{"default", []int{2000, 1600, 1200, 800}, ""},
		{"2000,1000", []int{2000, 1000}, ""},
		{" 3000 , 2000 ,1500 ", []int{3000, 2000, 1500}, ""},
		{"1000", []int{1000}, ""},
		{"2000,fast", nil, "bad ladder entry"},
		{"2000,", nil, "bad ladder entry"},
		{"1000,2000", nil, "not strictly descending"},
		{"2000,2000", nil, "not strictly descending"},
		{"2000,0", nil, "Active = 0"},
		{"-5", nil, "MHz = -5"},
	}
	for _, tc := range cases {
		fc, err := ParseLadder(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseLadder(%q) error = %v, want %q", tc.in, err, tc.wantErr)
			}
			if !fc.Trivial() {
				t.Errorf("ParseLadder(%q) returned a ladder alongside its error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseLadder(%q): %v", tc.in, err)
			continue
		}
		var got []int
		for _, s := range fc.States {
			got = append(got, s.MHz)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.mhz) || fc.Trivial() != (len(tc.mhz) == 0) {
			t.Errorf("ParseLadder(%q) = %v, want %v", tc.in, got, tc.mhz)
		}
	}
}

func TestLadderFromMHzPowerLaw(t *testing.T) {
	fc, err := LadderFromMHz([]int{2000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := []FreqState{
		{Name: "f2000", MHz: 2000, Active: 1, Idle: 0.1},
		{Name: "f1000", MHz: 1000, Active: 0.125, Idle: 0.05},
	}
	if fmt.Sprint(fc.States) != fmt.Sprint(want) {
		t.Errorf("states = %v, want %v", fc.States, want)
	}
	if got := fc.Key(); got != "f2000:2000:1:0.1,f1000:1000:0.125:0.05" {
		t.Errorf("Key = %q", got)
	}
	tab := fc.Table()
	if len(tab.Rows) != 2 || tab.Rows[1].Name != "f1000" || tab.Rows[1].Active != 0.125 || tab.Rows[1].Idle != 0.05 {
		t.Errorf("Table = %+v", tab)
	}
	if fc, err := LadderFromMHz(nil); err != nil || !fc.Trivial() {
		t.Errorf("LadderFromMHz(nil) = (%v, %v), want the trivial ladder", fc, err)
	}
	d := DefaultLadder()
	if len(d.States) != 4 || d.States[0].MHz != 2000 || d.States[3].Name != "f800" {
		t.Errorf("DefaultLadder = %v", d.States)
	}
}

func TestFreqConfigValidate(t *testing.T) {
	state := func(name string, mhz int, active, idle float64) FreqState {
		return FreqState{Name: name, MHz: mhz, Active: active, Idle: idle}
	}
	cases := []struct {
		name    string
		states  []FreqState
		wantErr string
	}{
		{"trivial", nil, ""},
		{"valid", []FreqState{state("perf", 2000, 1, 0.1), state("eco", 1000, 0.2, 0.05)}, ""},
		{"zero-mhz", []FreqState{state("perf", 2000, 1, 0.1), state("eco", 0, 0.2, 0.05)}, "MHz = 0"},
		{"ascending", []FreqState{state("perf", 1000, 1, 0.1), state("eco", 2000, 0.2, 0.05)}, "strictly descending"},
		{"no-name", []FreqState{state("perf", 2000, 1, 0.1), state("", 1000, 0.2, 0.05)}, "no name"},
		{"duplicate-name", []FreqState{state("perf", 2000, 1, 0.1), state("perf", 1000, 0.2, 0.05)}, "duplicate"},
		{"bad-power-row", []FreqState{state("perf", 2000, -1, 0.1)}, "Active = -1"},
	}
	for _, tc := range cases {
		err := FreqConfig{States: tc.states}.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	bad := DefaultConfig().WithFreq(FreqConfig{States: []FreqState{state("", 1000, 1, 0.1)}})
	if _, err := New(bad); err == nil {
		t.Error("New accepted a config with an invalid ladder")
	}
}

func TestResolveDVFS(t *testing.T) {
	two, _ := ParseLadder("2000,1000")
	cases := []struct {
		budget  float64
		in      FreqConfig
		wantKey string
		wantErr bool
	}{
		{0, FreqConfig{}, "", false},
		{0, two, two.Key(), false},
		{4, FreqConfig{}, DefaultLadder().Key(), false},
		{4, two, two.Key(), false},
		{-1, two, "", true},
	}
	for _, tc := range cases {
		fc, err := ResolveDVFS(tc.budget, tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ResolveDVFS(%g, %q): error %v, want error %v", tc.budget, tc.in.Key(), err, tc.wantErr)
			continue
		}
		if fc.Key() != tc.wantKey {
			t.Errorf("ResolveDVFS(%g, %q) = %q, want %q", tc.budget, tc.in.Key(), fc.Key(), tc.wantKey)
		}
	}
}

func TestTrivialLadderFreqCalls(t *testing.T) {
	m := MustNew(DefaultConfig())
	if m.FreqStates() != nil || m.CoreFreq(3) != 0 {
		t.Errorf("trivial machine: states %v, core freq %d", m.FreqStates(), m.CoreFreq(3))
	}
	if num, den := m.FreqScale(3); num != 1 || den != 1 {
		t.Errorf("FreqScale = %d/%d, want 1/1", num, den)
	}
	m.SetFreq(0, 10) // a no-op on the single-frequency machine
	defer func() {
		if recover() == nil {
			t.Error("SetCoreFreq(1) on a trivial ladder did not panic")
		}
	}()
	m.SetCoreFreq(0, 1, 10)
}

func TestSetCoreFreqScalesAndFlushes(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8).WithFreq(DefaultLadder()))
	if len(m.FreqStates()) != 4 {
		t.Fatalf("states = %v", m.FreqStates())
	}
	m.OccupyContext(2, 0)
	m.SetCoreFreq(2, 2, 100) // 1200 MHz, mid-activity
	if m.CoreFreq(2) != 2 || m.CoreFreq(1) != 0 {
		t.Errorf("core freqs %d, %d; want 2, 0", m.CoreFreq(2), m.CoreFreq(1))
	}
	if num, den := m.FreqScale(2); num != 2000 || den != 1200 {
		t.Errorf("FreqScale = %d/%d, want 2000/1200", num, den)
	}
	m.SetCoreFreq(2, 2, 150) // same state: no-op
	m.ReleaseContext(2, 300)
	act := m.Power.ActiveByState()[2]
	if act[0] != 100 || act[2] != 200 {
		t.Errorf("core 2 active by state = %v, want 100 at state 0 and 200 at state 2", act)
	}
	m.SetFreq(3, 400)
	for c := 0; c < m.Cores(); c++ {
		if m.CoreFreq(c) != 3 {
			t.Fatalf("core %d at state %d after SetFreq(3)", c, m.CoreFreq(c))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetCoreFreq to an out-of-range state did not panic")
		}
	}()
	m.SetCoreFreq(0, 4, 500)
}

func TestSetPowerBudgetArmsCompliance(t *testing.T) {
	// Every core active for the whole run averages one
	// nominal-active-core unit per core: 8 on this machine.
	run := func(budget float64) *invariant.Checker {
		m := MustNew(DefaultConfig().WithCores(8).WithFreq(DefaultLadder()))
		ck := invariant.New()
		m.AttachChecker(ck)
		m.SetPowerBudget(budget)
		m.Eng.Spawn("load", func(p *sim.Proc) {
			for c := 0; c < m.Cores(); c++ {
				m.OccupyContext(c, p.Now())
			}
			p.Advance(1000)
			for c := 0; c < m.Cores(); c++ {
				m.ReleaseContext(c, p.Now())
			}
		})
		m.Eng.Run()
		m.FinishCheck(m.Eng.Now())
		return ck
	}
	for _, tc := range []struct {
		budget float64
		want   bool
	}{{0, false}, {4, true}, {8, false}, {20, false}} {
		if got := run(tc.budget).Violated("power-budget-compliance"); got != tc.want {
			t.Errorf("budget %g: compliance violated = %v, want %v", tc.budget, got, tc.want)
		}
	}
}

package machine

import (
	"strings"
	"testing"
)

func TestParseMapping(t *testing.T) {
	cases := []struct {
		in   string
		want Mapping
	}{
		{"", MapPacked},
		{"packed", MapPacked},
		{"scattered", MapScattered},
		{"smt", MapSMT},
		{"smt-aware", MapSMT},
	}
	for _, tc := range cases {
		got, err := ParseMapping(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMapping(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseMapping("nosuch"); err == nil {
		t.Error("ParseMapping(nosuch): want error")
	}
}

func TestMappingStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, mp := range Mappings() {
		s, d := mp.String(), mp.Describe()
		if s == "" || strings.Contains(s, "Mapping(") {
			t.Errorf("%d: bad String %q", int(mp), s)
		}
		if d == "" || d == "unknown mapping" {
			t.Errorf("%s: bad Describe %q", s, d)
		}
		if seen[s] {
			t.Errorf("duplicate mapping name %q", s)
		}
		seen[s] = true
		// Every listed mapping round-trips through the CLI spelling.
		rt, err := ParseMapping(s)
		if err != nil || rt != mp {
			t.Errorf("ParseMapping(%s.String()) = %v, %v", s, rt, err)
		}
	}
	if s := Mapping(99).String(); s != "Mapping(99)" {
		t.Errorf("unknown mapping String = %q", s)
	}
}

func TestPartitionPacked(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	got0, err0 := m.Cfg.Partition(MapPacked, 0, 2)
	got1, err1 := m.Cfg.Partition(MapPacked, 1, 2)
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	wantEq(t, "packed team 0", got0, []int{0, 1, 2, 3})
	wantEq(t, "packed team 1", got1, []int{4, 5, 6, 7})
}

func TestPartitionScattered(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	got0, _ := m.Cfg.Partition(MapScattered, 0, 2)
	got1, _ := m.Cfg.Partition(MapScattered, 1, 2)
	wantEq(t, "scattered team 0", got0, []int{0, 2, 4, 6})
	wantEq(t, "scattered team 1", got1, []int{1, 3, 5, 7})
}

func TestPartitionSMT(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8).WithSMT(2))
	got0, err0 := m.Cfg.Partition(MapSMT, 0, 2)
	got1, err1 := m.Cfg.Partition(MapSMT, 1, 2)
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	// Plane-major context ids: plane p of core c is p*cores + c, so
	// each team sees every core on its own SMT plane.
	wantEq(t, "smt team 0", got0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	wantEq(t, "smt team 1", got1, []int{8, 9, 10, 11, 12, 13, 14, 15})
}

// TestPartitionCovers checks the partition property on uneven splits:
// every context owned exactly once.
func TestPartitionCovers(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	for _, mp := range []Mapping{MapPacked, MapScattered} {
		for _, n := range []int{1, 2, 3, 5, 8} {
			owned := map[int]int{}
			for team := 0; team < n; team++ {
				ctxs, err := m.Cfg.Partition(mp, team, n)
				if err != nil {
					t.Fatalf("%s %d of %d: %v", mp, team, n, err)
				}
				for _, c := range ctxs {
					owned[c]++
				}
			}
			for c := 0; c < m.Contexts(); c++ {
				if owned[c] != 1 {
					t.Errorf("%s split %d: context %d owned %d times", mp, n, c, owned[c])
				}
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	cases := []struct {
		mp   Mapping
		t, n int
	}{
		{MapPacked, 0, 0},  // no teams
		{MapPacked, -1, 2}, // negative slot
		{MapPacked, 2, 2},  // slot out of range
		{MapPacked, 0, 9},  // 9 teams on 8 cores: someone gets nothing
		{MapSMT, 0, 2},     // 2 teams on 1 SMT plane
		{Mapping(99), 0, 1},
	}
	for _, tc := range cases {
		if _, err := m.Cfg.Partition(tc.mp, tc.t, tc.n); err == nil {
			t.Errorf("Partition(%v, %d, %d): want error", tc.mp, tc.t, tc.n)
		}
	}
}

func wantEq(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", label, got, want)
		}
	}
}

func TestFeasibleMappings(t *testing.T) {
	cases := []struct {
		cfg  Config
		n    int
		want []Mapping
	}{
		{DefaultConfig().WithCores(8), 2, []Mapping{MapPacked, MapScattered}},
		{DefaultConfig().WithCores(8).WithSMT(2), 2, []Mapping{MapPacked, MapScattered, MapSMT}},
		{DefaultConfig().WithCores(8).WithSMT(2), 3, []Mapping{MapPacked, MapScattered}},
		{DefaultConfig().WithCores(1), 2, nil},
	}
	for _, tc := range cases {
		got := tc.cfg.FeasibleMappings(tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("%d cores x %d planes, %d teams: %v, want %v", tc.cfg.Mem.Cores, tc.cfg.SMTContexts, tc.n, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%d cores x %d planes, %d teams: %v, want %v", tc.cfg.Mem.Cores, tc.cfg.SMTContexts, tc.n, got, tc.want)
			}
		}
		for _, mp := range tc.want {
			if err := tc.cfg.CheckMapping(mp, tc.n); err != nil {
				t.Errorf("CheckMapping(%s, %d): %v", mp, tc.n, err)
			}
		}
	}
}

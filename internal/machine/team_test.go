package machine

import (
	"testing"
)

func TestDefaultTeamIdentity(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	dt := m.DefaultTeam()
	if dt2 := m.DefaultTeam(); dt2 != dt {
		t.Error("DefaultTeam not idempotent")
	}
	if dt.Size() != m.Contexts() {
		t.Errorf("default team size %d, want %d", dt.Size(), m.Contexts())
	}
	// Legacy placement order and unprefixed names: a default-team run
	// is indistinguishable from the pre-team machine.
	for i := 0; i < dt.Size(); i++ {
		if c := dt.Ctx(i); c != i {
			t.Fatalf("default team ctx[%d] = %d, want identity order", i, c)
		}
	}
	if got := dt.ProcName("master"); got != "master" {
		t.Errorf("default team ProcName = %q, want unprefixed", got)
	}
	if m.TeamOf(0) != dt {
		t.Error("TeamOf(0) is not the default team")
	}
}

func TestDefaultTeamPanicsOnPartitionedMachine(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	if _, err := m.SplitTeams(MapPacked, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("DefaultTeam on a partitioned machine: want panic")
		}
	}()
	m.DefaultTeam()
}

func TestSplitTeams(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	teams, err := m.SplitTeams(MapScattered, []string{"t0:a", "t1:b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 2 || teams[0].ID != 0 || teams[1].ID != 1 {
		t.Fatalf("teams %v", teams)
	}
	if teams[0].Name != "t0:a" || teams[0].ProcName("master") != "t0:a:master" {
		t.Errorf("team 0 name %q, proc %q", teams[0].Name, teams[0].ProcName("master"))
	}
	for i := 0; i < teams[1].Size(); i++ {
		if c := teams[1].Ctx(i); m.TeamOf(c) != teams[1] {
			t.Errorf("context %d not owned by team 1", c)
		}
	}
	if got := len(m.Teams()); got != 2 {
		t.Errorf("Teams() = %d entries, want 2", got)
	}
	// The machine is partitioned now: a second split must refuse.
	if _, err := m.SplitTeams(MapPacked, []string{"x"}); err == nil {
		t.Error("second SplitTeams: want error")
	}
}

func TestNewTeamValidation(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	if _, err := m.NewTeam("empty", nil); err == nil {
		t.Error("empty context list: want error")
	}
	if _, err := m.NewTeam("oob", []int{0, 99}); err == nil {
		t.Error("out-of-range context: want error")
	}
	m.OccupyContext(1, 0)
	if _, err := m.NewTeam("busy", []int{1}); err == nil {
		t.Error("occupied context: want error")
	}
	m.ReleaseContext(1, 10)
	if _, err := m.NewTeam("a", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewTeam("b", []int{0}); err == nil {
		t.Error("double-owned context: want error")
	}
}

func TestTeamChargesAndNilSafety(t *testing.T) {
	var nilTeam *Team
	nilTeam.ChargeCS(5)
	nilTeam.ChargeCSWait(5)
	nilTeam.ChargeCSEntry()
	nilTeam.ChargeBarrierWait(5)

	m := MustNew(DefaultConfig().WithCores(8))
	team, err := m.NewTeam("a", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	team.ChargeCS(7)
	team.ChargeCSWait(3)
	team.ChargeCSEntry()
	team.ChargeBarrierWait(11)
	for name, want := range map[string]uint64{
		CtrTeamCSCycles:          7,
		CtrTeamCSWaitCycles:      3,
		CtrTeamCSEntries:         1,
		CtrTeamBarrierWaitCycles: 11,
	} {
		if got := team.Ctrs.Counter(name).Read(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if team.MemAttr() == nil || team.MemAttr().BusBusy == nil {
		t.Error("MemAttr missing bus counters")
	}
}

func TestTeamContextActiveAccumulates(t *testing.T) {
	m := MustNew(DefaultConfig().WithCores(8))
	team, err := m.NewTeam("a", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m.OccupyContext(0, 100)
	m.ReleaseContext(0, 250)
	m.OccupyContext(1, 300)
	m.ReleaseContext(1, 350)
	if got := team.ContextActiveCycles(); got != 200 {
		t.Errorf("ContextActiveCycles = %d, want 200", got)
	}
}

package core_test

import (
	"reflect"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// The checkpoint determinism contract: a machine checkpointed at
// quiescence, restored into a fresh machine of the same Config, and
// handed the same remaining work must reproduce the uninterrupted
// execution cycle for cycle. The tests drive a two-leg run — warm the
// machine with one workload execution, then run a second execution on
// top of the warm state — and compare the second leg between the
// uninterrupted machine and a checkpoint/restore round trip. The
// second leg's training, decisions, timing and power all depend on
// the warm microarchitectural state (cache tags, DRAM row buffers,
// bus schedule, heap cursor), so any state the checkpoint misses
// shows up as a divergence.

// ckptWorkloads are small instances of three differently-limited
// workloads: a critical-section-limited miner, a bandwidth-limited
// streamer, and a two-kernel pipeline whose second kernel consumes
// the first's cache-resident output.
var ckptWorkloads = []struct {
	name    string
	factory core.Factory
}{
	{"pagemine", func(m *machine.Machine) core.Workload {
		return workloads.NewPageMine(m, workloads.PageMineParams{
			Pages: 64, PageBytes: 1320, WorkPerCharInstr: 2, MergePerBinInstr: 6,
		})
	}},
	{"ed", func(m *machine.Machine) core.Workload {
		return workloads.NewED(m, workloads.EDParams{N: 64 << 10, Block: 1024, MulAddInstr: 4})
	}},
	{"mtwister", func(m *machine.Machine) core.Workload {
		return workloads.NewMTwister(m, workloads.MTwisterParams{
			N: 8 << 10, BlockLen: 256, GenInstr: 260, BoxMullerInstr: 40,
		})
	}},
}

// ckptPolicies builds a fresh controller per leg so no controller
// state leaks between runs.
var ckptPolicies = []struct {
	name string
	mk   func() *core.Controller
}{
	{"serial", func() *core.Controller { return core.NewController(core.Static{N: 1}) }},
	{"SAT", func() *core.Controller { return core.NewController(core.SAT{}) }},
	{"BAT", func() *core.Controller { return core.NewController(core.BAT{}) }},
	{"adaptive", func() *core.Controller {
		ctl := core.NewController(core.Combined{})
		mp := core.DefaultMonitorParams()
		ctl.Monitor = &mp
		return ctl
	}},
}

// runSecondLeg executes the two-leg sequence and returns the second
// leg's result plus the machine's final checkpoint. With interrupt
// set, the warm state crosses a Checkpoint/RestoreCheckpoint round
// trip into a fresh machine before the second leg runs.
func runSecondLeg(cfg machine.Config, f core.Factory, mk func() *core.Controller, interrupt bool) (core.RunResult, *machine.Checkpoint) {
	m := machine.MustNew(cfg)
	mk().Run(m, f(m))
	if interrupt {
		cp := m.Checkpoint()
		m = machine.MustNew(cfg)
		m.RestoreCheckpoint(cp)
	}
	res := mk().Run(m, f(m))
	return res, m.Checkpoint()
}

func TestCheckpointRestoreDeterminism(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, w := range ckptWorkloads {
		for _, p := range ckptPolicies {
			t.Run(w.name+"/"+p.name, func(t *testing.T) {
				want, wantCp := runSecondLeg(cfg, w.factory, p.mk, false)
				got, gotCp := runSecondLeg(cfg, w.factory, p.mk, true)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("restored continuation diverged:\nuninterrupted: %+v\nrestored:      %+v", want, got)
				}
				if !reflect.DeepEqual(wantCp, gotCp) {
					t.Errorf("final machine state diverged after restore")
					diffCheckpoints(t, wantCp, gotCp)
				}
			})
		}
	}
}

// TestCheckpointRoundTrip asserts that restoring a checkpoint into a
// fresh machine reproduces the checkpoint itself — Restore(State())
// is the identity on the observable state.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.MustNew(cfg)
	core.NewController(core.SAT{}).Run(m, ckptWorkloads[0].factory(m))
	cp := m.Checkpoint()
	m2 := machine.MustNew(cfg)
	m2.RestoreCheckpoint(cp)
	cp2 := m2.Checkpoint()
	if !reflect.DeepEqual(cp, cp2) {
		t.Errorf("checkpoint round trip not identity")
		diffCheckpoints(t, cp, cp2)
	}
}

// diffCheckpoints narrows a checkpoint mismatch to the component that
// diverged, so failures point at the subsystem missing state.
func diffCheckpoints(t *testing.T, a, b *machine.Checkpoint) {
	t.Helper()
	if a.Now != b.Now {
		t.Errorf("  clock: %d vs %d", a.Now, b.Now)
	}
	for name, av := range a.Counters {
		if bv := b.Counters[name]; av != bv {
			t.Errorf("  counter %s: %d vs %d", name, av, bv)
		}
	}
	for name := range b.Counters {
		if _, ok := a.Counters[name]; !ok {
			t.Errorf("  counter %s: missing in first", name)
		}
	}
	if !reflect.DeepEqual(a.Power, b.Power) {
		t.Errorf("  power integrals: %v vs %v", a.Power, b.Power)
	}
	if !reflect.DeepEqual(a.Mem, b.Mem) {
		t.Errorf("  memory-system state diverged")
	}
}

// FuzzCheckpoint fuzzes the determinism property over workload,
// policy and input size.
func FuzzCheckpoint(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2))
	f.Add(uint8(1), uint8(2), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(1))
	cfg := machine.DefaultConfig()
	f.Fuzz(func(t *testing.T, wi, pi, size uint8) {
		scale := 1 + int(size%3) // 1..3
		var factory core.Factory
		switch wi % 3 {
		case 0:
			factory = func(m *machine.Machine) core.Workload {
				return workloads.NewPageMine(m, workloads.PageMineParams{
					Pages: 16 * scale, PageBytes: 660, WorkPerCharInstr: 2, MergePerBinInstr: 6,
				})
			}
		case 1:
			factory = func(m *machine.Machine) core.Workload {
				return workloads.NewED(m, workloads.EDParams{N: 16 << 10 * scale, Block: 1024, MulAddInstr: 4})
			}
		default:
			factory = func(m *machine.Machine) core.Workload {
				return workloads.NewMTwister(m, workloads.MTwisterParams{
					N: 4 << 10 * scale, BlockLen: 256, GenInstr: 260, BoxMullerInstr: 40,
				})
			}
		}
		pol := ckptPolicies[int(pi)%len(ckptPolicies)]
		want, wantCp := runSecondLeg(cfg, factory, pol.mk, false)
		got, gotCp := runSecondLeg(cfg, factory, pol.mk, true)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("restored continuation diverged for w=%d p=%s scale=%d", wi%3, pol.name, scale)
		}
		if !reflect.DeepEqual(wantCp, gotCp) {
			t.Errorf("final state diverged for w=%d p=%s scale=%d", wi%3, pol.name, scale)
		}
	})
}

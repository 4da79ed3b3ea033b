package core

import (
	"os"
	"strings"
	"testing"

	"fdt/internal/machine"
)

// nopFactory stands in for a workload: a key never builds one.
func nopFactory(*machine.Machine) Workload { panic("nopFactory: keys build no workload") }

// goldenCorunKeys regenerates, through RunSpec.Key, the co-run and
// solo-on-partition content addresses that
// testdata/identity_keys_corun.txt pinned from the key code that
// predates partitioned RunSpecs: configs ×
// mappings (smt only where the machine has a plane per tenant) ×
// modes × train-once/adaptive tenants, each co-run followed by every
// solo slot of its partition. Like identity_keys_pr9.txt it is a hard
// compatibility pin: a drifted key silently orphans every persisted
// co-run.
func goldenCorunKeys() []string {
	cfgs := []machine.Config{
		machine.DefaultConfig(),
		machine.DefaultConfig().WithCores(8),
		machine.DefaultConfig().WithCores(16).WithSMT(2),
	}
	var keys []string
	for _, cfg := range cfgs {
		mappings := []machine.Mapping{machine.MapPacked, machine.MapScattered}
		if cfg.SMTContexts >= 2 {
			mappings = append(mappings, machine.MapSMT)
		}
		for _, mp := range mappings {
			for _, md := range []Mode{ExactMode(), SampledMode()} {
				for _, adaptive := range []bool{false, true} {
					ctl := func(pol Policy) Control { return Control{Policy: pol, Adaptive: adaptive} }
					teams := []Team{
						{Workload: "pagemine", Factory: nopFactory, Control: ctl(Combined{})},
						{Workload: "mg", Factory: nopFactory, Control: ctl(Static{N: 4})},
					}
					if cfg.Mem.Cores == 8 {
						teams = append(teams, Team{Workload: "ed/pb=2560", Factory: nopFactory, Control: ctl(Static{})})
					}
					co := RunSpec{Cfg: cfg, Mode: md, Mapping: mp, Teams: teams}
					keys = append(keys, co.Key())
					for slot := range teams {
						keys = append(keys, co.Solo(slot).Key())
					}
				}
			}
		}
	}
	return keys
}

// TestCorunKeysIdentity pins every co-run and solo key byte-identical
// to the release that introduced co-runs.
func TestCorunKeysIdentity(t *testing.T) {
	data, err := os.ReadFile("../../testdata/identity_keys_corun.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	got := goldenCorunKeys()
	if len(got) != len(want) {
		t.Fatalf("key count drifted: got %d, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d drifted:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

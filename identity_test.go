// Single-team bit-identity pin: the multi-team refactor must be
// provably behavior-preserving for N=1. Every Table-2 workload runs
// under {serial, SAT, BAT, adaptive} on a 16-core machine in exact
// mode, and the JSON-marshaled results must be byte-identical to the
// golden captured on the pre-refactor (PR 6) tree.
//
// Regenerate the golden ONLY when an intentional behavior change is
// being made (and say so in the PR):
//
//	go test -run TestSingleTeamBitIdentity -update-identity .
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

var updateIdentity = flag.Bool("update-identity", false,
	"regenerate testdata/identity_exact_16c.json from the current tree")

const identityGolden = "testdata/identity_exact_16c.json"

// identityRuns executes the pinned matrix: 12 workloads x {serial,
// SAT, BAT, adaptive SAT+BAT}, 16 cores, exact mode. Results flow
// through the same keyed entry points the experiments use, so the pin
// also covers the run-cache path.
func identityRuns() []core.RunResult {
	cfg := machine.DefaultConfig().WithCores(16)
	var out []core.RunResult
	for _, info := range workloads.All() {
		for _, pol := range []core.Policy{core.Static{N: 1}, core.SAT{}, core.BAT{}} {
			out = append(out, core.RunPolicyKeyed(cfg, info.Name, info.Factory, pol))
		}
		adaptive, err := core.ParseController("adaptive")
		if err != nil {
			panic(err)
		}
		out = append(out, core.RunSpec{Cfg: cfg, Workload: info.Name, Factory: info.Factory, Control: adaptive}.Run())
	}
	return out
}

func TestSingleTeamBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("48 exact 16-core runs; skipped in -short")
	}
	got, err := json.MarshalIndent(identityRuns(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateIdentity {
		if err := os.MkdirAll(filepath.Dir(identityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identityGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", identityGolden, len(got))
		return
	}

	want, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-identity once): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Locate the first diverging result for a readable failure.
	var gotRuns, wantRuns []core.RunResult
	if json.Unmarshal(got, &gotRuns) == nil && json.Unmarshal(want, &wantRuns) == nil {
		n := len(gotRuns)
		if len(wantRuns) < n {
			n = len(wantRuns)
		}
		for i := 0; i < n; i++ {
			g, _ := json.Marshal(gotRuns[i])
			w, _ := json.Marshal(wantRuns[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("single-team run diverged from the PR 6 golden at %s/%s:\n got: %s\nwant: %s",
					gotRuns[i].Workload, gotRuns[i].Policy, g, w)
			}
		}
	}
	t.Fatalf("single-team results diverged from the PR 6 golden (%d vs %d bytes)", len(got), len(want))
}

package core

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"fdt/internal/machine"
	"fdt/internal/store"
)

// damage truncates every store entry under dir, simulating a crashed
// or bit-rotted store.
func damage(t *testing.T, dir string) {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".run" {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		n++
		return nil
	})
	if n == 0 {
		t.Fatal("no store entries found to damage")
	}
}

// storeRuns opens the store at dir and returns a fresh run cache
// backed by it, as a new process would build one.
func storeRuns(t *testing.T, dir string) *Runs {
	t.Helper()
	st, err := store.Open(dir, RunStoreSchema)
	if err != nil {
		t.Fatal(err)
	}
	return NewRuns(0, st)
}

func persistTestRun(runs *Runs) RunResult {
	cfg := machine.DefaultConfig().WithCores(8)
	return RunSpec{Cfg: cfg, Workload: "synth/persist", Factory: newSynthFactory(40, 900, 60, 2), Control: Control{Policy: Static{N: 4}}}.Run(runs)
}

// A run simulated in one "process" must be served from the store —
// zero computes — after a simulated restart (a new run cache), and
// must re-marshal to byte-identical JSON.
func TestRunStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	runs := storeRuns(t, dir)

	cold := persistTestRun(runs)
	if got := runs.Computes(); got != 1 {
		t.Fatalf("cold computes = %d, want 1", got)
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	if st := runs.Store().Stats(); st.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.Puts)
	}

	// "Restart": a new in-memory cache on the re-opened store, as a
	// new daemon process would build.
	runs = storeRuns(t, dir)
	warm := persistTestRun(runs)
	if got := runs.Computes(); got != 0 {
		t.Fatalf("warm computes = %d, want 0 (store should satisfy the miss)", got)
	}
	if got := runs.Store().Stats().Hits; got != 1 {
		t.Fatalf("store hits = %d, want 1", got)
	}
	warmJSON, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(warmJSON) != string(coldJSON) {
		t.Errorf("restored run not byte-identical:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// A corrupted store entry must fall back to recompute and self-repair.
func TestRunStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	cold := persistTestRun(storeRuns(t, dir))
	damage(t, dir)

	runs := storeRuns(t, dir)
	warm := persistTestRun(runs)
	if got := runs.Computes(); got != 1 {
		t.Fatalf("computes = %d, want 1 (corrupt entry must recompute)", got)
	}
	if warm.TotalCycles != cold.TotalCycles {
		t.Errorf("recomputed run differs: %d vs %d cycles", warm.TotalCycles, cold.TotalCycles)
	}
	if st := runs.Store().Stats(); st.Corrupt == 0 {
		t.Errorf("store stats = %+v, want corrupt > 0", st)
	}
}

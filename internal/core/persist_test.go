package core

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"fdt/internal/machine"
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

// withRunStore attaches a fresh store at dir for the test's duration
// and restores the pristine global state afterwards.
func withRunStore(t *testing.T, dir string) {
	t.Helper()
	ResetRunCache()
	if _, err := OpenRunStore(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		DetachRunStore()
		ResetRunCache()
	})
}

func persistTestRun(t *testing.T) RunResult {
	t.Helper()
	cfg := machine.DefaultConfig().WithCores(8)
	return RunPolicyKeyed(cfg, "synth/persist", newSynthFactory(40, 900, 60, 2), Static{N: 4})
}

// A run simulated in one "process" must be served from the store —
// zero computes — after a simulated restart (cache reset), and must
// re-marshal to byte-identical JSON.
func TestRunStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	withRunStore(t, dir)

	cold := persistTestRun(t)
	if got := RunCacheComputes(); got != 1 {
		t.Fatalf("cold computes = %d, want 1", got)
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := RunStoreStats(); st.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.Puts)
	}

	// "Restart": drop the in-memory cache and re-open the store, as a
	// new daemon process would.
	DetachRunStore()
	ResetRunCache()
	if _, err := OpenRunStore(dir); err != nil {
		t.Fatal(err)
	}

	warm := persistTestRun(t)
	if got := RunCacheComputes(); got != 0 {
		t.Fatalf("warm computes = %d, want 0 (store should satisfy the miss)", got)
	}
	if got := runCache.BackingHits(); got != 1 {
		t.Fatalf("backing hits = %d, want 1", got)
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
	withRunStore(t, dir)

	cold := persistTestRun(t)
	damage(t, dir)

	DetachRunStore()
	ResetRunCache()
	if _, err := OpenRunStore(dir); err != nil {
		t.Fatal(err)
	}
	warm := persistTestRun(t)
	if RunCacheComputes() != 1 {
		t.Fatalf("computes = %d, want 1 (corrupt entry must recompute)", RunCacheComputes())
	}
	if warm.TotalCycles != cold.TotalCycles {
		t.Errorf("recomputed run differs: %d vs %d cycles", warm.TotalCycles, cold.TotalCycles)
	}
	if st, _ := RunStoreStats(); st.Corrupt == 0 {
		t.Errorf("store stats = %+v, want corrupt > 0", st)
	}
}

package service

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"fdt/internal/core"
	"fdt/internal/store"
)

// storeRuns opens the disk store at dir and returns a fresh run cache
// backed by it, as a daemon process builds one at start.
func storeRuns(t *testing.T, dir string) *core.Runs {
	t.Helper()
	st, err := store.Open(dir, core.RunStoreSchema)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRuns(0, st)
}

// TestRestartServedFromStore is the PR's restart-resilience
// acceptance test: run a sweep through the service backed by a disk
// store, tear the whole process state down (service drained, its run
// cache dropped — the in-process equivalent of killing the daemon),
// bring a fresh service up on the same store directory, and resubmit.
// Every run must be a store hit: zero recomputes, and the result
// bytes must be identical to the first incarnation's.
func TestRestartServedFromStore(t *testing.T) {
	dir := t.TempDir()

	// --- first incarnation: cold, computes and persists ---
	s1 := New(Config{Workers: 2, Runs: storeRuns(t, dir)})
	ts1 := httptest.NewServer(s1.Handler())

	v, resp := postJob(t, ts1, smallSweep("restart"))
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	cold := pollDone(t, ts1, v.ID)
	if len(cold.Result) == 0 {
		t.Fatal("cold run has no result")
	}
	if got := s1.cfg.Runs.Computes(); got != 2 {
		t.Fatalf("cold computes = %d, want 2", got)
	}
	st := getStats(t, ts1)
	if !st.StoreAttached || st.Store == nil || st.Store.Puts != 2 {
		t.Fatalf("store did not persist the runs: %+v", st)
	}
	if st.StoreEntries != 2 {
		t.Fatalf("store entries = %d, want 2", st.StoreEntries)
	}

	drain(t, s1)
	ts1.Close()

	// --- simulated restart: a new run cache on the same store dir ---
	s2 := New(Config{Workers: 2, Runs: storeRuns(t, dir)})
	defer drain(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	v2, _ := postJob(t, ts2, smallSweep("restart"))
	warm := pollDone(t, ts2, v2.ID)

	if got := s2.cfg.Runs.Computes(); got != 0 {
		t.Fatalf("warm incarnation recomputed %d runs, want 0 (all store hits)", got)
	}
	st2 := getStats(t, ts2)
	if st2.Store == nil || st2.Store.Hits != 2 || st2.Store.Misses != 0 {
		t.Fatalf("store stats after restart = %+v, want 2 hits / 0 misses", st2.Store)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("restart broke byte-identity:\ncold: %s\nwarm: %s", cold.Result, warm.Result)
	}
}

// TestStoreSharedAcrossDistinctJobs: two different clients submitting
// the same sweep against a store-backed service compute once and hit
// the store/memory cache afterwards — the daemon's whole reason to
// exist.
func TestStoreSharedAcrossDistinctJobs(t *testing.T) {
	s := New(Config{Workers: 2, Runs: storeRuns(t, t.TempDir())})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	va, _ := postJob(t, ts, smallSweep("alice"))
	a := pollDone(t, ts, va.ID)
	vb, _ := postJob(t, ts, smallSweep("bob"))
	b := pollDone(t, ts, vb.ID)

	if got := s.cfg.Runs.Computes(); got != 2 {
		t.Fatalf("computes = %d, want 2 (second job fully cached)", got)
	}
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatal("identical specs produced different results")
	}
}

package core

// The run cache's algorithm, driven through Runs.do with fixed runs so
// that nothing simulates: single-flight fill, FIFO eviction that skips
// entries in flight, store read-through and write-through, and a peek
// that neither fills, waits nor counts.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fdt/internal/runner"
	"fdt/internal/store"
)

// cycles is a run of n total cycles.
func cycles(n uint64) runEntry { return runEntry{res: RunResult{TotalCycles: n}} }

// fixed is a fill that returns e.
func fixed(e runEntry) func() runEntry { return func() runEntry { return e } }

// tempStore opens an empty run store that the test removes.
func tempStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), RunStoreSchema)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeLoads counts the lookups st answered, hits and misses.
func storeLoads(st *store.Store) uint64 {
	s := st.Stats()
	return s.Hits + s.Misses
}

func TestCacheSingleFlight(t *testing.T) {
	r := NewRuns(0, nil)
	var calls atomic.Int32
	const n = 64
	results := make([]uint64, n)
	runner.MapN(8, n, func(i int) {
		results[i] = r.do("k", func() runEntry {
			calls.Add(1)
			return cycles(42)
		}).res.TotalCycles
	})
	if got := calls.Load(); got != 1 {
		t.Fatalf("fill ran %d times for one key, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result[%d] = %d, want 42", i, v)
		}
	}
	if hits, misses := r.Stats(); misses != 1 || hits != n-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 1", hits, misses, n-1)
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	r := NewRuns(0, nil)
	a := r.do("a", fixed(cycles(1)))
	b := r.do("b", fixed(cycles(2)))
	if a.res.TotalCycles != 1 || b.res.TotalCycles != 2 {
		t.Fatalf("got %d/%d", a.res.TotalCycles, b.res.TotalCycles)
	}
	if entries, _, _ := r.Usage(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	r.do("a", func() runEntry { t.Fatal("refilled a cached key"); return runEntry{} })
	if h, m := r.Stats(); h != 1 || m != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1 / 2", h, m)
	}
}

// Reset drops every entry and zeroes every counter, derived runs
// included, but keeps the energy total.
func TestCacheReset(t *testing.T) {
	r := NewRuns(0, nil)
	r.do("k", fixed(cycles(1)))
	r.derived.Add(1)
	r.addEnergy(5)
	r.reset()
	if entries, bytes, _ := r.Usage(); entries != 0 || bytes != 0 {
		t.Fatalf("usage after reset = %d entries / %d bytes", entries, bytes)
	}
	if r.Computes() != 0 || r.Derived() != 0 {
		t.Fatalf("computes=%d derived=%d after reset, want 0/0", r.Computes(), r.Derived())
	}
	if r.Energy() != 5 {
		t.Errorf("energy = %v after reset, want 5 kept", r.Energy())
	}
	refilled := false
	r.do("k", func() runEntry { refilled = true; return cycles(2) })
	if !refilled {
		t.Fatal("reset did not drop the entry")
	}
	if h, m := r.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats after reset = %d/%d, want 0/1", h, m)
	}
}

func TestCacheLimitEvictsOldestFirst(t *testing.T) {
	r := NewRuns(2, nil)
	named := func(k string) runEntry { return runEntry{res: RunResult{Workload: k + k}} }
	for _, k := range []string{"a", "b", "c", "d"} {
		r.do(k, fixed(named(k)))
	}
	entries, bytes, evictions := r.Usage()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	if want := runResultBytes(named("c").res) + runResultBytes(named("d").res); bytes != want {
		t.Errorf("bytes = %d, want %d (the two survivors)", bytes, want)
	}
	// The newest keys survive; the oldest were evicted and refill.
	calls := 0
	for _, k := range []string{"c", "d"} {
		r.do(k, func() runEntry { calls++; return runEntry{} })
	}
	if calls != 0 {
		t.Errorf("surviving keys refilled %d times", calls)
	}
	r.do("a", func() runEntry { calls++; return named("a") })
	if calls != 1 {
		t.Errorf("evicted key did not refill (calls=%d)", calls)
	}
}

// Eviction skips an entry in flight: the entry stays for its waiters
// and later requests, and its bytes land when its fill completes.
func TestCacheEvictionSkipsEntriesInFlight(t *testing.T) {
	r := NewRuns(1, nil)
	release, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		r.do("slow", func() runEntry { close(started); <-release; return cycles(1) })
		close(done)
	}()
	<-started
	r.do("a", fixed(cycles(2))) // over the limit: "a" goes, "slow" stays
	close(release)
	<-done
	if e := r.do("slow", func() runEntry { t.Error("refilled an entry evicted in flight"); return runEntry{} }); e.res.TotalCycles != 1 {
		t.Errorf("slow = %d, want 1", e.res.TotalCycles)
	}
	if entries, bytes, evictions := r.Usage(); entries != 1 || bytes != runResultBytes(cycles(1).res) || evictions != 1 {
		t.Errorf("usage = %d entries / %d bytes / %d evictions, want 1 / %d / 1", entries, bytes, evictions, runResultBytes(cycles(1).res))
	}
}

// An entry's bytes count its result and its training record, and leave
// the total when it is evicted.
func TestCacheBytesFollowEviction(t *testing.T) {
	r := NewRuns(1, nil)
	big := runEntry{res: RunResult{Workload: strings.Repeat("x", 1000)}, rec: &runRecord{kernels: make([]kernelRecord, 4)}}
	small := runEntry{res: RunResult{Workload: "y"}}
	r.do("big", fixed(big))
	if _, bytes, _ := r.Usage(); bytes != runResultBytes(big.res)+big.rec.bytes() {
		t.Fatalf("bytes = %d, want %d", bytes, runResultBytes(big.res)+big.rec.bytes())
	}
	r.do("small", fixed(small)) // evicts big
	if _, bytes, _ := r.Usage(); bytes != runResultBytes(small.res) {
		t.Errorf("bytes after eviction = %d, want %d", bytes, runResultBytes(small.res))
	}
	r.reset()
	if entries, bytes, _ := r.Usage(); entries != 0 || bytes != 0 {
		t.Errorf("usage after reset = %d entries / %d bytes, want 0 / 0", entries, bytes)
	}
}

func TestCacheZeroLimitUnbounded(t *testing.T) {
	r := NewRuns(0, nil)
	for i := 0; i < 100; i++ {
		r.do(fmt.Sprint(i), fixed(cycles(uint64(i))))
	}
	if entries, _, evictions := r.Usage(); entries != 100 || evictions != 0 {
		t.Errorf("unbounded cache: %d entries / %d evictions, want 100 / 0", entries, evictions)
	}
}

func TestCachePeekNeitherComputesNorWaits(t *testing.T) {
	st := tempStore(t)
	save(st, "a", cycles(7))
	save(st, "b", cycles(7))
	r := NewRuns(0, st)
	if _, ok := r.peek("a"); ok {
		t.Fatal("peek found a key never requested (it must not consult the store)")
	}
	r.do("b", fixed(cycles(0))) // loads from the store
	if e, ok := r.peek("b"); !ok || e.res.TotalCycles != 7 {
		t.Errorf("peek(b) = %d, %v after a store load, want 7, true", e.res.TotalCycles, ok)
	}
	r.store.Store(nil)
	release, started := make(chan struct{}), make(chan struct{})
	go r.do("c", func() runEntry { close(started); <-release; return cycles(3) })
	<-started
	if _, ok := r.peek("c"); ok {
		t.Error("peek returned an entry in flight")
	}
	close(release)
	for {
		if e, ok := r.peek("c"); ok {
			if e.res.TotalCycles != 3 {
				t.Errorf("peek = %d, want 3", e.res.TotalCycles)
			}
			break
		}
		runtime.Gosched()
	}
	if h, m := r.Stats(); h != 0 || m != 2 {
		t.Errorf("stats %d hits / %d misses, want 0 / 2: peek counts neither", h, m)
	}
	if r.Computes() != 1 {
		t.Errorf("%d computes, want 1", r.Computes())
	}
}

func TestBackingWriteThroughAndReload(t *testing.T) {
	st := tempStore(t)
	r := NewRuns(0, st)

	fills := 0
	e := r.do("k", func() runEntry { fills++; return cycles(42) })
	if e.res.TotalCycles != 42 || fills != 1 {
		t.Fatalf("first do = %d (fills %d), want 42 filled once", e.res.TotalCycles, fills)
	}
	if n, _ := st.Len(); st.Stats().Puts != 1 || n != 1 {
		t.Fatalf("filled run not written through: puts=%d entries=%d", st.Stats().Puts, n)
	}

	// A memory hit neither loads nor fills.
	e = r.do("k", func() runEntry { fills++; return cycles(0) })
	if e.res.TotalCycles != 42 || fills != 1 || storeLoads(st) != 1 {
		t.Fatalf("memory hit refilled or reloaded: v=%d fills=%d loads=%d", e.res.TotalCycles, fills, storeLoads(st))
	}

	// Drop the memory copy: the next do must reload from the store,
	// which reset keeps attached, not refill.
	r.reset()
	e = r.do("k", func() runEntry { fills++; return cycles(0) })
	if e.res.TotalCycles != 42 || fills != 1 {
		t.Fatalf("store reload failed: v=%d fills=%d", e.res.TotalCycles, fills)
	}
	if r.Computes() != 0 || st.Stats().Hits != 1 {
		t.Fatalf("after reload: computes=%d store hits=%d, want 0/1", r.Computes(), st.Stats().Hits)
	}
}

func TestBackingEvictionReloadsNotRecomputes(t *testing.T) {
	st := tempStore(t)
	r := NewRuns(1, st)
	r.do("a", fixed(cycles(1)))
	r.do("b", fixed(cycles(2))) // evicts a
	if _, _, evictions := r.Usage(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if e := r.do("a", fixed(cycles(0))); e.res.TotalCycles != 1 {
		t.Fatalf("evicted key reloaded %d, want 1", e.res.TotalCycles)
	}
	if r.Computes() != 2 || st.Stats().Hits != 1 {
		t.Fatalf("computes=%d store hits=%d, want 2/1", r.Computes(), st.Stats().Hits)
	}
}

// Single-flight holds with a store attached: concurrent requests for
// one cold key make one store lookup, one fill and one write.
func TestBackingSingleFlight(t *testing.T) {
	st := tempStore(t)
	r := NewRuns(0, st)

	const goroutines = 32
	var fills atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = r.do("hot", func() runEntry {
				fills.Add(1)
				return cycles(7)
			}).res.TotalCycles
		}(g)
	}
	close(start)
	wg.Wait()
	for g, v := range results {
		if v != 7 {
			t.Fatalf("goroutine %d got %d", g, v)
		}
	}
	if fills.Load() != 1 || storeLoads(st) != 1 || st.Stats().Puts != 1 {
		t.Fatalf("fills=%d loads=%d puts=%d, want 1/1/1", fills.Load(), storeLoads(st), st.Stats().Puts)
	}
}

// A warm store serves many distinct keys to many goroutines without a
// fill.
func TestBackingWarmConcurrent(t *testing.T) {
	dir := t.TempDir()
	warm, err := store.Open(dir, RunStoreSchema)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	for i := 0; i < keys; i++ {
		save(warm, fmt.Sprintf("k%d", i), cycles(uint64(i)))
	}
	st, err := store.Open(dir, RunStoreSchema) // fresh counters
	if err != nil {
		t.Fatal(err)
	}
	r := NewRuns(0, st)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k%d", i)
				if v := r.do(key, fixed(cycles(0))).res.TotalCycles; v != uint64(i) {
					t.Errorf("do(%s) = %d, want %d", key, v, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Computes() != 0 || st.Stats().Hits != keys {
		t.Fatalf("computes=%d store hits=%d, want 0/%d", r.Computes(), st.Stats().Hits, keys)
	}
	if st.Stats().Puts != 0 {
		t.Fatalf("puts = %d on a fully warm store", st.Stats().Puts)
	}
}

// Detaching the store mid-life leaves the cache a plain memoizer.
func TestBackingDetach(t *testing.T) {
	st := tempStore(t)
	r := NewRuns(0, st)
	r.do("k", fixed(cycles(1)))
	r.store.Store(nil)
	r.reset()
	if e := r.do("k", fixed(cycles(9))); e.res.TotalCycles != 9 {
		t.Fatalf("detached cache served %d from the old store", e.res.TotalCycles)
	}
	if storeLoads(st) != 1 {
		t.Fatalf("store consulted after detach: loads=%d", storeLoads(st))
	}
}

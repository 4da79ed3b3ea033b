package runner

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 17} {
		const n = 100
		counts := make([]atomic.Int32, n)
		MapN(w, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("w=%d: index %d ran %d times, want 1", w, i, got)
			}
		}
	}
}

func TestMapSerialPreservesIndexOrder(t *testing.T) {
	var order []int
	MapN(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order = %v, want ascending", order)
		}
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	ran := false
	MapN(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("Map ran a task for n=0")
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// A single-P host can still interleave via the rendezvous
		// below; the test only needs goroutine concurrency, not
		// hardware parallelism.
	}
	const w = 2
	var entered sync.WaitGroup
	entered.Add(w)
	MapN(w, w, func(i int) {
		entered.Done()
		entered.Wait() // deadlocks unless both tasks are in flight at once
	})
}

func TestMapPanicPropagatesLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected Map to re-raise the task panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "task 3 panicked") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic = %q, want task 3 / boom", msg)
		}
	}()
	MapN(4, 16, func(i int) {
		if i >= 3 {
			panic("boom")
		}
	})
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS", got)
	}
	SetWorkers(-5)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d after SetWorkers(-5), want GOMAXPROCS", got)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[int]
	var calls atomic.Int32
	const n = 64
	results := make([]int, n)
	MapN(8, n, func(i int) {
		results[i] = c.Do("k", func() int {
			calls.Add(1)
			return 42
		})
	})
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("result[%d] = %d, want 42", i, r)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != n-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 1", hits, misses, n-1)
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	var c Cache[string]
	a := c.Do("a", func() string { return "va" })
	b := c.Do("b", func() string { return "vb" })
	if a != "va" || b != "vb" {
		t.Fatalf("got %q/%q", a, b)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if rate := c.HitRate(); rate != 0 {
		t.Fatalf("HitRate = %v with no hits", rate)
	}
	c.Do("a", func() string { t.Fatal("recomputed cached key"); return "" })
	if rate := c.HitRate(); rate <= 0 {
		t.Fatalf("HitRate = %v after a hit", rate)
	}
}

func TestCacheReset(t *testing.T) {
	var c Cache[int]
	c.Do("k", func() int { return 1 })
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Reset", c.Len())
	}
	recomputed := false
	c.Do("k", func() int { recomputed = true; return 2 })
	if !recomputed {
		t.Fatal("Reset did not drop the entry")
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats after reset = %d/%d, want 0/1", h, m)
	}
}

func TestCacheLimitEvictsOldestFirst(t *testing.T) {
	var c Cache[string]
	c.SetLimit(2)
	c.SetSizer(func(v string) uint64 { return uint64(len(v)) })
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		k := k
		c.Do(k, func() string { return k + k })
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Evictions(); got != 2 {
		t.Errorf("Evictions = %d, want 2", got)
	}
	if got := c.Bytes(); got != 4 {
		t.Errorf("Bytes = %d, want 4 (two 2-byte survivors)", got)
	}
	// The newest keys survive; the oldest were evicted and recompute.
	calls := 0
	for _, k := range []string{"c", "d"} {
		c.Do(k, func() string { calls++; return "" })
	}
	if calls != 0 {
		t.Errorf("surviving keys recomputed %d times", calls)
	}
	c.Do("a", func() string { calls++; return "aa" })
	if calls != 1 {
		t.Errorf("evicted key did not recompute (calls=%d)", calls)
	}
}

func TestCacheShrinkLimitEvictsImmediately(t *testing.T) {
	var c Cache[int]
	for i := 0; i < 5; i++ {
		c.Do(strings.Repeat("k", i+1), func() int { return i })
	}
	c.SetLimit(1)
	if got := c.Len(); got != 1 {
		t.Fatalf("Len after shrink = %d, want 1", got)
	}
	// The survivor is the newest insertion.
	calls := 0
	c.Do(strings.Repeat("k", 5), func() int { calls++; return 0 })
	if calls != 0 {
		t.Errorf("newest entry was evicted")
	}
}

func TestCacheBytesFollowEviction(t *testing.T) {
	var c Cache[[]byte]
	c.SetSizer(func(v []byte) uint64 { return uint64(len(v)) })
	c.Do("big", func() []byte { return make([]byte, 1000) })
	c.Do("small", func() []byte { return make([]byte, 10) })
	if got := c.Bytes(); got != 1010 {
		t.Fatalf("Bytes = %d, want 1010", got)
	}
	c.SetLimit(1) // evicts "big"
	if got := c.Bytes(); got != 10 {
		t.Errorf("Bytes after eviction = %d, want 10", got)
	}
	c.Reset()
	if got := c.Bytes(); got != 0 {
		t.Errorf("Bytes after reset = %d, want 0", got)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len after reset = %d, want 0", got)
	}
}

func TestCacheZeroLimitUnbounded(t *testing.T) {
	var c Cache[int]
	for i := 0; i < 100; i++ {
		c.Do(strings.Repeat("x", i+1), func() int { return i })
	}
	if got := c.Len(); got != 100 {
		t.Errorf("unbounded cache evicted: Len = %d, want 100", got)
	}
	if got := c.Evictions(); got != 0 {
		t.Errorf("Evictions = %d, want 0", got)
	}
}

func TestCachePeekNeitherComputesNorWaits(t *testing.T) {
	var c Cache[int]
	c.SetBacking(func(string) (int, bool) { return 7, true }, nil)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek found a key never requested (it must not consult the backing)")
	}
	release, started := make(chan struct{}), make(chan struct{})
	c.Do("b", func() int { return 0 }) // loads from the backing
	if v, ok := c.Peek("b"); !ok || v != 7 {
		t.Errorf("Peek(b) = %d, %v after a backing load, want 7, true", v, ok)
	}
	c.SetBacking(nil, nil)
	go c.Do("c", func() int { close(started); <-release; return 3 })
	<-started
	if _, ok := c.Peek("c"); ok {
		t.Error("Peek returned an in-flight entry")
	}
	close(release)
	for {
		if v, ok := c.Peek("c"); ok {
			if v != 3 {
				t.Errorf("Peek = %d, want 3", v)
			}
			break
		}
		runtime.Gosched()
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Errorf("stats %d hits / %d misses, want 0 / 2: Peek counts neither", h, m)
	}
	if c.Computes() != 1 {
		t.Errorf("%d computes, want 1", c.Computes())
	}
}

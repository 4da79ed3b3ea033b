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

// Package runner provides the host-side execution layer for the
// simulation suite: a worker pool that fans independent simulated
// runs out across host cores. The run cache that memoizes them is
// core.Runs.
//
// Parallelism lives strictly here, across independent simulations.
// One sim.Engine is single-threaded by design (determinism depends on
// a total event order); the runner never touches an engine's
// internals, it only decides which engines run concurrently.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width; 0 means GOMAXPROCS.
var workers atomic.Int64

// SetWorkers sets the default worker-pool width used by Map.
// n == 0 restores the default (GOMAXPROCS); n == 1 forces serial
// execution; negative values are treated as 0.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers reports the effective worker-pool width.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n), fanning the calls out over the
// configured worker pool. Callers collect results by writing into
// index i of a pre-sized slice, so output order is independent of
// scheduling and identical to a serial loop.
//
// With one worker (or n <= 1) the calls run serially on the calling
// goroutine in index order — the legacy behaviour, bit-compatible
// with the pre-runner code path.
//
// If any fn panics, Map re-raises the lowest-index panic on the
// calling goroutine after all workers have stopped draining.
func Map(n int, fn func(i int)) {
	MapN(Workers(), n, fn)
}

// MapN is Map with an explicit pool width, for call sites that must
// override the process default (tests, determinism checks).
func MapN(w, n int, fn func(i int)) {
	if w <= 0 {
		w = Workers()
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicIdx = -1
		panicVal any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicIdx, panicVal = i, r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicIdx >= 0 {
		panic(fmt.Sprintf("runner: task %d panicked: %v", panicIdx, panicVal))
	}
}

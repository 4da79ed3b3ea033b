package runner

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes deterministic computations by content key, with
// single-flight semantics: when several workers ask for the same key
// concurrently, exactly one computes and the rest block on the result.
// Values must be treated as immutable by all callers — the same value
// is handed to every hit.
//
// The cache can account its footprint (SetSizer) and bound its entry
// count (SetLimit); past the limit the oldest completed entries are
// evicted, so a long sweep over many configurations runs in bounded
// memory at the cost of recomputing whatever it revisits.
//
// A second, durable level can be attached with SetBacking: on a map
// miss the cache consults the backing before computing, and writes
// every freshly computed value through. Eviction only ever drops the
// in-memory copy — an evicted key reloads from the backing instead of
// recomputing — so SetLimit/Bytes/Evictions remain the sole bounded-
// memory mechanism while the backing provides persistence.
//
// The zero value is ready to use.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry[V]
	// order holds keys oldest-first for FIFO eviction.
	order []string
	limit int
	sizer func(V) uint64
	bytes uint64
	load  func(key string) (V, bool)
	save  func(key string, v V)

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	computes    atomic.Uint64
	backingHits atomic.Uint64
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	// bytes and done are written once by the computing goroutine
	// under the cache mutex; done gates eviction so an in-flight
	// entry is never dropped from under its waiters' accounting.
	bytes uint64
	done  bool
}

// SetLimit caps the number of cached entries; 0 (the default) means
// unlimited. Shrinking the limit below the current population evicts
// immediately.
func (c *Cache[V]) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// SetSizer installs a value-size estimator for byte accounting. Only
// entries computed after the call are measured, so install it before
// populating the cache.
func (c *Cache[V]) SetSizer(f func(V) uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sizer = f
}

// SetBacking attaches (or, with nil funcs, detaches) a second-level
// load/save pair — typically a disk store. load is consulted on every
// map miss before fn runs; save receives every value fn computes.
// Both run outside the cache lock and must be safe for concurrent
// use; single-flight already guarantees at most one load or save per
// key is in flight at a time.
func (c *Cache[V]) SetBacking(load func(key string) (V, bool), save func(key string, v V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.load, c.save = load, save
}

// Do returns the cached value for key, computing it with fn on the
// first request. Concurrent requests for an in-flight key wait for
// the single computation and count as hits. A re-request for an
// evicted key recomputes (and counts as a miss) — unless a backing is
// attached and still holds it, in which case it reloads.
func (c *Cache[V]) Do(key string, fn func() V) V {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if c.entries == nil {
			c.entries = make(map[string]*cacheEntry[V])
		}
		e = new(cacheEntry[V])
		c.entries[key] = e
		c.order = append(c.order, key)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		c.mu.Lock()
		load, save := c.load, c.save
		c.mu.Unlock()
		loaded := false
		if load != nil {
			if v, ok := load(key); ok {
				e.val = v
				loaded = true
				c.backingHits.Add(1)
			}
		}
		if !loaded {
			e.val = fn()
			c.computes.Add(1)
			if save != nil {
				save(key, e.val)
			}
		}
		c.mu.Lock()
		if c.sizer != nil {
			e.bytes = c.sizer(e.val)
		}
		e.done = true
		c.bytes += e.bytes
		c.evictLocked()
		c.mu.Unlock()
	})
	return e.val
}

// Peek returns key's value when a completed entry holds it, without
// computing, consulting the backing, waiting for an in-flight entry or
// counting a hit or miss.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.done {
		return e.val, true
	}
	var zero V
	return zero, false
}

// evictLocked drops the oldest completed entries until the population
// fits the limit. In-flight entries are skipped: their waiters hold
// the entry pointer and their accounting lands when they complete.
func (c *Cache[V]) evictLocked() {
	if c.limit <= 0 || len(c.entries) <= c.limit {
		return
	}
	kept := c.order[:0]
	for i, key := range c.order {
		e, live := c.entries[key]
		if !live {
			continue // stale key from an earlier eviction pass
		}
		if len(c.entries) > c.limit && e.done {
			delete(c.entries, key)
			c.bytes -= e.bytes
			c.evictions.Add(1)
			continue
		}
		kept = append(kept, key)
		if len(c.entries) <= c.limit {
			kept = append(kept, c.order[i+1:]...)
			break
		}
	}
	c.order = kept
}

// Stats reports cache hits and misses since construction or the last
// Reset.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the sizer-estimated footprint of the completed cached
// entries; 0 when no sizer is installed.
func (c *Cache[V]) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions reports how many entries the limit has pushed out.
func (c *Cache[V]) Evictions() uint64 { return c.evictions.Load() }

// Computes reports how many times Do actually ran its compute
// function; misses satisfied by the backing do not count. When no
// backing is attached, Computes equals the miss count.
func (c *Cache[V]) Computes() uint64 { return c.computes.Load() }

// BackingHits reports how many map misses the attached backing
// satisfied without recomputation.
func (c *Cache[V]) BackingHits() uint64 { return c.backingHits.Load() }

// Reset drops every entry and zeroes the statistics (the limit,
// sizer, and backing persist).
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.entries = nil
	c.order = nil
	c.bytes = 0
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.computes.Store(0)
	c.backingHits.Store(0)
}

package mem

import "fmt"

// Cache is a set-associative, LRU, line-addressed cache tag array.
// It tracks only tags and state bits — data values live in the
// workload's own Go memory; the simulator needs timing, not contents.
//
// All methods take global line addresses (byte address / line size),
// L3 bank shards included: a shard indexes its sets with the low bits
// of the line address (see System.bankOf).
//
// The tag array is one slice of sets*ways keys, row-major, 4 bytes per
// way. A key holds line address + 1 with the dirty flag in bit 31; 0
// is an invalid way, so line addresses are limited to MaxLines. Each
// set keeps its valid ways packed at its front in recency order: way 0
// is the most recently used, the last valid way the least recently
// used, and the invalid ways form the tail. A hit moves its key to the
// front; an insert shifts the valid prefix back by one way, so the last
// way falls out as the victim only when the set is full; an
// invalidation shifts the ways behind the removed one forward. Probes
// stop at the first invalid way. The shifts are element loops, not
// copy: a set is a few ways, and copy would call memmove for each.
type Cache struct {
	sets int
	ways int
	key  []uint32

	// Statistics.
	Hits   uint64
	Misses uint64
	Evicts uint64
}

const (
	dirtyBit = 1 << 31
	keyMask  = dirtyBit - 1

	// MaxLines bounds the simulated line addresses a Cache can tag:
	// every line address must be below it (128 GiB at 64-byte lines).
	MaxLines = keyMask
)

// NewCache builds a cache of the given capacity in bytes with the
// given associativity and line size. Capacity must be an exact
// multiple of ways*lineBytes and the resulting set count a power of
// two.
func NewCache(capacityBytes, ways, lineBytes int) *Cache {
	if ways <= 0 {
		panic(fmt.Sprintf("mem: cache associativity %d is not positive", ways))
	}
	lines := capacityBytes / lineBytes
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: cache set count must be a positive power of two")
	}
	return &Cache{
		sets: sets,
		ways: ways,
		key:  make([]uint32, sets*ways),
	}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// set returns the index of lineAddr's set's first way and the key the
// line carries when valid and clean.
func (c *Cache) set(lineAddr uint64) (lo int, want uint32) {
	if lineAddr >= MaxLines {
		lineOutOfRange(lineAddr)
	}
	return (int(lineAddr) & (c.sets - 1)) * c.ways, uint32(lineAddr) + 1
}

// lineOutOfRange stays out of line so set inlines into every probe.
//
//go:noinline
func lineOutOfRange(lineAddr uint64) {
	panic(fmt.Sprintf("mem: line address %#x outside the cache tag range (< %#x)", lineAddr, MaxLines))
}

// find returns lineAddr's set's keys and the way holding the line,
// or -1.
func (c *Cache) find(lineAddr uint64) (keys []uint32, way int) {
	lo, want := c.set(lineAddr)
	keys = c.key[lo : lo+c.ways]
	for i, k := range keys {
		if k&keyMask == want {
			return keys, i
		}
		if k == 0 {
			break
		}
	}
	return keys, -1
}

// touch moves way i of a set's keys to the front, the most recently
// used position. A caller that sets the way's dirty bit does so first.
func touch(keys []uint32, i int) {
	k := keys[i]
	for ; i > 0; i-- {
		keys[i] = keys[i-1]
	}
	keys[0] = k
}

// Lookup probes for the line. On a hit it refreshes LRU state, sets
// the dirty bit when markDirty is true, and returns true.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	// The probe loop is written out here and in Contains, not shared
	// through find: they are the simulator's hottest calls, and find
	// is too large to inline.
	lo, want := c.set(lineAddr)
	keys := c.key[lo : lo+c.ways]
	for i, k := range keys {
		if k&keyMask == want {
			if markDirty {
				keys[i] |= dirtyBit
			}
			touch(keys, i)
			c.Hits++
			return true
		}
		if k == 0 {
			break
		}
	}
	c.Misses++
	return false
}

// Contains probes for the line without touching LRU or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	lo, want := c.set(lineAddr)
	for _, k := range c.key[lo : lo+c.ways] {
		if k&keyMask == want {
			return true
		}
		if k == 0 {
			break
		}
	}
	return false
}

// Insert places the line (overwriting any stale copy) and reports the
// victim if a valid line had to be evicted.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	lo, want := c.set(lineAddr)
	keys := c.key[lo : lo+c.ways]
	// One pass finds an existing copy or the first invalid way; with
	// neither, the set is full and its last way is the victim.
	last := len(keys) - 1
	for i, k := range keys {
		if k&keyMask == want {
			// Refresh the existing copy.
			if dirty {
				keys[i] |= dirtyBit
			}
			touch(keys, i)
			return 0, false, false
		}
		if k == 0 {
			last = i
			break
		}
	}
	if k := keys[last]; k != 0 {
		victim, victimDirty, evicted = uint64(k&keyMask-1), k&dirtyBit != 0, true
		c.Evicts++
	}
	if dirty {
		want |= dirtyBit
	}
	keys[last] = want
	touch(keys, last)
	return victim, victimDirty, evicted
}

// Invalidate drops the line if present, reporting whether it was
// present and whether it was dirty (the caller owes a writeback for
// dirty invalidations).
func (c *Cache) Invalidate(lineAddr uint64) (present, wasDirty bool) {
	keys, i := c.find(lineAddr)
	if i < 0 {
		return false, false
	}
	wasDirty = keys[i]&dirtyBit != 0
	for ; i+1 < len(keys) && keys[i+1] != 0; i++ {
		keys[i] = keys[i+1]
	}
	keys[i] = 0
	return true, wasDirty
}

// MarkDirty sets the dirty bit of the line if present, without
// touching LRU order or statistics, and reports whether the line was
// present (used for posted writebacks from a private L2 into the L3).
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	keys, i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	keys[i] |= dirtyBit
	return true
}

// Clean clears the dirty bit of the line if present (used when the
// directory forces a writeback from a remote owner).
func (c *Cache) Clean(lineAddr uint64) {
	if keys, i := c.find(lineAddr); i >= 0 {
		keys[i] &^= dirtyBit
	}
}

// Dirty reports whether the line is present with its dirty bit set,
// without touching LRU order or statistics.
func (c *Cache) Dirty(lineAddr uint64) bool {
	keys, i := c.find(lineAddr)
	return i >= 0 && keys[i]&dirtyBit != 0
}

// ForEachLine visits every valid line (used by the quiescent
// coherence walk).
func (c *Cache) ForEachLine(fn func(lineAddr uint64, dirty bool)) {
	for _, k := range c.key {
		if k != 0 {
			fn(uint64(k&keyMask-1), k&dirtyBit != 0)
		}
	}
}

// ValidLines reports how many lines are currently valid (test aid).
func (c *Cache) ValidLines() int {
	n := 0
	for _, k := range c.key {
		if k != 0 {
			n++
		}
	}
	return n
}

// ResetStats clears hit/miss/evict counters without touching contents.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evicts = 0, 0, 0
}

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
// The tag array is two parallel slices of sets*ways entries, row-major,
// 5 bytes per way:
//
//   - key holds line address + 1 with the dirty flag in bit 31; 0 is an
//     invalid way. Line addresses are therefore limited to MaxLines.
//   - age holds each valid way's recency rank within its set, 0 for
//     the most recently used; the ranks of a set's n valid ways are a
//     permutation of 0..n-1. A hit or a refresh ages every younger way
//     by one, an insert ages every other way by one, and an
//     invalidation closes the gap above the removed rank, so the valid
//     way with the highest rank is exactly the least recently used one.
//     An invalid way's age is never read, since it is written when
//     the way becomes valid, so the rank updates run over every way of
//     the set without testing validity.
type Cache struct {
	sets int
	ways int
	key  []uint32
	age  []uint8

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

	// MaxWays is the largest associativity the uint8 recency ranks
	// can order.
	MaxWays = 255
)

// NewCache builds a cache of the given capacity in bytes with the
// given associativity and line size. Capacity must be an exact
// multiple of ways*lineBytes and the resulting set count a power of
// two; ways may not exceed MaxWays.
func NewCache(capacityBytes, ways, lineBytes int) *Cache {
	if ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("mem: cache associativity %d outside 1..%d", ways, MaxWays))
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
		age:  make([]uint8, sets*ways),
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
func (c *Cache) find(lineAddr uint64) (keys []uint32, lo, way int) {
	lo, want := c.set(lineAddr)
	keys = c.key[lo : lo+c.ways]
	for i, k := range keys {
		if k&keyMask == want {
			return keys, lo, i
		}
	}
	return keys, lo, -1
}

// touch makes way i of the set at lo the most recently used.
func (c *Cache) touch(lo, i int) {
	ages := c.age[lo : lo+c.ways]
	r := ages[i]
	if r == 0 {
		return
	}
	for j, a := range ages {
		if a < r {
			ages[j]++
		}
	}
	ages[i] = 0
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
			c.touch(lo, i)
			if markDirty {
				keys[i] |= dirtyBit
			}
			c.Hits++
			return true
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
	}
	return false
}

// Insert places the line (overwriting any stale copy) and reports the
// victim if a valid line had to be evicted.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	lo, want := c.set(lineAddr)
	keys := c.key[lo : lo+c.ways]
	ages := c.age[lo : lo+len(keys)]
	// One pass finds an existing copy, the first invalid way and the
	// oldest valid way.
	free, oldest := -1, -1
	for i, k := range keys {
		switch {
		case k&keyMask == want:
			// Refresh the existing copy in place.
			c.touch(lo, i)
			if dirty {
				keys[i] |= dirtyBit
			}
			return 0, false, false
		case k == 0:
			if free < 0 {
				free = i
			}
		case oldest < 0 || ages[i] > ages[oldest]:
			oldest = i
		}
	}
	v := free
	if v < 0 {
		v = oldest
		victim, victimDirty, evicted = uint64(keys[v]&keyMask-1), keys[v]&dirtyBit != 0, true
		c.Evicts++
	}
	for j := range ages {
		ages[j]++
	}
	keys[v], ages[v] = want, 0
	if dirty {
		keys[v] |= dirtyBit
	}
	return victim, victimDirty, evicted
}

// Invalidate drops the line if present, reporting whether it was
// present and whether it was dirty (the caller owes a writeback for
// dirty invalidations).
func (c *Cache) Invalidate(lineAddr uint64) (present, wasDirty bool) {
	keys, lo, i := c.find(lineAddr)
	if i < 0 {
		return false, false
	}
	wasDirty = keys[i]&dirtyBit != 0
	keys[i] = 0
	ages := c.age[lo : lo+c.ways]
	r := ages[i]
	for j, a := range ages {
		if a > r {
			ages[j]--
		}
	}
	return true, wasDirty
}

// MarkDirty sets the dirty bit of the line if present, without
// touching LRU order or statistics, and reports whether the line was
// present (used for posted writebacks from a private L2 into the L3).
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	keys, _, i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	keys[i] |= dirtyBit
	return true
}

// Clean clears the dirty bit of the line if present (used when the
// directory forces a writeback from a remote owner).
func (c *Cache) Clean(lineAddr uint64) {
	if keys, _, i := c.find(lineAddr); i >= 0 {
		keys[i] &^= dirtyBit
	}
}

// Dirty reports whether the line is present with its dirty bit set,
// without touching LRU order or statistics.
func (c *Cache) Dirty(lineAddr uint64) bool {
	keys, _, i := c.find(lineAddr)
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

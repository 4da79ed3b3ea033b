package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 lines, 8 sets
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: lines mapping to the same set evict in LRU order.
	c := NewCache(2*64, 2, 64) // 1 set, 2 ways
	c.Insert(10, false)
	c.Insert(20, false)
	c.Lookup(10, false) // 10 is now MRU
	victim, _, evicted := c.Insert(30, false)
	if !evicted || victim != 20 {
		t.Errorf("victim = %d (evicted=%v), want 20", victim, evicted)
	}
	if !c.Contains(10) || !c.Contains(30) || c.Contains(20) {
		t.Error("cache contents wrong after LRU eviction")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(2*64, 2, 64)
	c.Insert(1, true)
	c.Insert(2, false)
	victim, dirty, evicted := c.Insert(3, false)
	if !evicted || victim != 1 || !dirty {
		t.Errorf("victim=%d dirty=%v evicted=%v, want 1/true/true", victim, dirty, evicted)
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := NewCache(2*64, 2, 64)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(1, false) // refresh, no eviction
	victim, _, evicted := c.Insert(3, false)
	if !evicted || victim != 2 {
		t.Errorf("victim = %d, want 2 (LRU after refresh)", victim)
	}
}

func TestCacheLookupMarkDirty(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(7, false)
	c.Lookup(7, true)
	_, wasDirty := c.Invalidate(7)
	if !wasDirty {
		t.Error("markDirty lookup did not set dirty bit")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(9, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(9) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Error("second invalidate reported present")
	}
}

func TestCacheClean(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(3, true)
	c.Clean(3)
	_, dirty := c.Invalidate(3)
	if dirty {
		t.Error("Clean did not clear dirty bit")
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := NewCache(1024, 2, 64)
	if c.MarkDirty(4) {
		t.Error("MarkDirty on absent line reported present")
	}
	c.Insert(4, false)
	if !c.MarkDirty(4) {
		t.Error("MarkDirty on present line reported absent")
	}
	_, dirty := c.Invalidate(4)
	if !dirty {
		t.Error("MarkDirty did not set dirty bit")
	}
}

func TestCacheSetIndexSpreadsLines(t *testing.T) {
	// Sequential lines must land in distinct sets: filling twice the
	// way count of sequential lines in an 8-set cache must not evict.
	c := NewCache(16*64, 2, 64) // 8 sets, 2 ways
	for l := uint64(0); l < 16; l++ {
		if _, _, evicted := c.Insert(l, false); evicted {
			t.Fatalf("evicted while inserting line %d into non-full cache", l)
		}
	}
	if c.ValidLines() != 16 {
		t.Errorf("valid = %d, want 16", c.ValidLines())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two set count")
		}
	}()
	NewCache(3*64, 1, 64)
}

func TestPropertyCacheNeverExceedsCapacity(t *testing.T) {
	f := func(lines []uint16) bool {
		c := NewCache(8*64, 2, 64)
		for _, l := range lines {
			c.Insert(uint64(l), l%2 == 0)
		}
		return c.ValidLines() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInsertedLineIsPresentUntilEvicted(t *testing.T) {
	// After inserting L, either L is present, or some later insert to
	// L's set evicted it — checked by tracking the victim stream.
	f := func(lines []uint16) bool {
		c := NewCache(8*64, 2, 64)
		present := map[uint64]bool{}
		for _, raw := range lines {
			l := uint64(raw % 64)
			victim, _, evicted := c.Insert(l, false)
			if evicted {
				delete(present, victim)
			}
			present[l] = true
			for want := range present {
				if !c.Contains(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCacheDirty(t *testing.T) {
	c := NewCache(1024, 2, 64)
	if c.Dirty(6) {
		t.Error("absent line reported dirty")
	}
	c.Insert(6, false)
	if c.Dirty(6) {
		t.Error("clean line reported dirty")
	}
	c.MarkDirty(6)
	if !c.Dirty(6) {
		t.Error("MarkDirty line reported clean")
	}
	c.Clean(6)
	if c.Dirty(6) {
		t.Error("Clean line reported dirty")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Errorf("Dirty touched statistics: hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheForEachLine(t *testing.T) {
	c := NewCache(16*64, 2, 64) // 8 sets, 2 ways
	want := map[uint64]bool{0: false, 8: true, 3: true, 12: false}
	for l, d := range want {
		c.Insert(l, d)
	}
	c.Insert(5, false)
	c.Invalidate(5)
	got := map[uint64]bool{}
	c.ForEachLine(func(l uint64, d bool) {
		if _, dup := got[l]; dup {
			t.Errorf("line %d visited twice", l)
		}
		got[l] = d
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachLine visited %v, want %v", got, want)
	}
}

func TestCacheResetStats(t *testing.T) {
	c := NewCache(2*64, 2, 64)
	c.Lookup(1, false)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(3, false)
	c.Lookup(3, false)
	if c.Hits != 1 || c.Misses != 1 || c.Evicts != 1 {
		t.Fatalf("hits/misses/evicts = %d/%d/%d, want 1/1/1", c.Hits, c.Misses, c.Evicts)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 || c.Evicts != 0 {
		t.Errorf("after ResetStats: %d/%d/%d", c.Hits, c.Misses, c.Evicts)
	}
	if !c.Contains(2) || !c.Contains(3) || c.ValidLines() != 2 {
		t.Error("ResetStats touched contents")
	}
}

func TestCacheAssociativityBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero ways")
		}
	}()
	NewCache(64, 0, 64)
}

func TestCacheLineAddressBound(t *testing.T) {
	c := NewCache(4*64, 2, 64)
	top := uint64(MaxLines - 1)
	c.Insert(top, true)
	c.Insert(top-2, false)
	if !c.Contains(top) || !c.Dirty(top) {
		t.Fatal("highest line address not held")
	}
	victim, dirty, evicted := c.Insert(top-4, false)
	if !evicted || victim != top || !dirty {
		t.Errorf("victim = %#x dirty=%v evicted=%v, want %#x/true/true", victim, dirty, evicted, top)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a line address at MaxLines")
		}
	}()
	c.Lookup(MaxLines, false)
}

// TestCacheRankOrder walks one 4-way set through hits, a refresh, an
// invalidation and an eviction, checking every way's recency rank.
func TestCacheRankOrder(t *testing.T) {
	c := NewCache(4*64, 4, 64) // 1 set, 4 ways
	ranks := func() map[uint64]int {
		m := map[uint64]int{}
		for _, l := range stateOf(c).Lines {
			if l.Valid {
				m[l.Tag] = l.LRU
			}
		}
		return m
	}
	check := func(step string, want map[uint64]int) {
		t.Helper()
		if got := ranks(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ranks %v, want %v", step, got, want)
		}
	}
	for _, l := range []uint64{1, 2, 3, 4} {
		c.Insert(l, false)
	}
	check("fill", map[uint64]int{4: 0, 3: 1, 2: 2, 1: 3})
	c.Lookup(2, false)
	check("hit", map[uint64]int{2: 0, 4: 1, 3: 2, 1: 3})
	c.Insert(1, false)
	check("refresh", map[uint64]int{1: 0, 2: 1, 4: 2, 3: 3})
	c.Invalidate(2)
	check("invalidate", map[uint64]int{1: 0, 4: 1, 3: 2})
	c.Insert(5, false)
	check("refill", map[uint64]int{5: 0, 1: 1, 4: 2, 3: 3})
	if victim, _, _ := c.Insert(6, false); victim != 3 {
		t.Errorf("victim %d, want 3", victim)
	}
	check("evict", map[uint64]int{6: 0, 5: 1, 1: 2, 4: 3})
}

// refCache is the cache's previous tag array, kept as a test oracle:
// 24 bytes per way, recency as a per-cache tick stamped on each way.
type refCache struct {
	sets, ways int
	tick       uint64
	arr        []refLine
	hits       uint64
	misses     uint64
	evicts     uint64
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(capacityBytes, ways, lineBytes int) *refCache {
	sets := capacityBytes / lineBytes / ways
	return &refCache{sets: sets, ways: ways, arr: make([]refLine, sets*ways)}
}

func (c *refCache) set(l uint64) []refLine {
	s := int(l) & (c.sets - 1)
	return c.arr[s*c.ways : (s+1)*c.ways]
}

func (c *refCache) find(l uint64) *refLine {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(l uint64, markDirty bool) bool {
	if w := c.find(l); w != nil {
		c.tick++
		w.lru = c.tick
		w.dirty = w.dirty || markDirty
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *refCache) Insert(l uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set := c.set(l)
	c.tick++
	if w := c.find(l); w != nil {
		w.lru = c.tick
		w.dirty = w.dirty || dirty
		return 0, false, false
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refLine{tag: l, valid: true, dirty: dirty, lru: c.tick}
			return 0, false, false
		}
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim, victimDirty = set[vi].tag, set[vi].dirty
	set[vi] = refLine{tag: l, valid: true, dirty: dirty, lru: c.tick}
	c.evicts++
	return victim, victimDirty, true
}

func (c *refCache) Invalidate(l uint64) (present, wasDirty bool) {
	if w := c.find(l); w != nil {
		present, wasDirty = true, w.dirty
		*w = refLine{}
	}
	return present, wasDirty
}

func (c *refCache) MarkDirty(l uint64) bool {
	w := c.find(l)
	if w != nil {
		w.dirty = true
	}
	return w != nil
}

func (c *refCache) Clean(l uint64) {
	if w := c.find(l); w != nil {
		w.dirty = false
	}
}

func (c *refCache) Dirty(l uint64) bool {
	w := c.find(l)
	return w != nil && w.dirty
}

// wayState is one way of a tag array as the tests read it. LRU is the
// way's recency rank within its set (0 = most recently used); an
// invalid way has every field zero.
type wayState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	LRU   int
}

// cacheState is a tag array plus its statistics, as the tests read
// them.
type cacheState struct {
	Hits   uint64
	Misses uint64
	Evicts uint64
	Lines  []wayState
}

// stateOf reads c's tag array. A set keeps its valid ways at its front
// in recency order, so a valid way's rank is its position in the set.
func stateOf(c *Cache) cacheState {
	st := cacheState{Hits: c.Hits, Misses: c.Misses, Evicts: c.Evicts, Lines: make([]wayState, len(c.key))}
	for i, k := range c.key {
		if k != 0 {
			st.Lines[i] = wayState{Tag: uint64(k&keyMask - 1), Valid: true, Dirty: k&dirtyBit != 0, LRU: i % c.ways}
		}
	}
	return st
}

// state renders the oracle the way stateOf reads a Cache: a valid
// way's rank is the number of valid ways in its set used more
// recently, and the way of rank r sits at position r of its set, with
// the invalid ways last.
func (c *refCache) state() cacheState {
	st := cacheState{Hits: c.hits, Misses: c.misses, Evicts: c.evicts, Lines: make([]wayState, len(c.arr))}
	for i, l := range c.arr {
		if !l.valid {
			continue
		}
		s := i / c.ways * c.ways
		rank := 0
		for _, o := range c.arr[s : s+c.ways] {
			if o.valid && o.lru > l.lru {
				rank++
			}
		}
		st.Lines[s+rank] = wayState{Tag: l.tag, Valid: true, Dirty: l.dirty, LRU: rank}
	}
	return st
}

// TestCacheMatchesTickLRU drives the cache and the tick-LRU oracle
// through the same random mixed operations and requires every return
// value, and periodically the whole state, to agree.
func TestCacheMatchesTickLRU(t *testing.T) {
	geometries := []struct{ sets, ways int }{
		{1, 1}, {1, 2}, {4, 2}, {4, 4}, {8, 8}, {2, 16},
	}
	const seeds, ops = 200, 2000
	for _, g := range geometries {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				if err := diffCache(g.sets, g.ways, seed, ops); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func diffCache(sets, ways int, seed int64, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	c, ref := NewCache(sets*ways*64, ways, 64), newRefCache(sets*ways*64, ways, 64)
	span := uint64(3 * sets * ways)
	for op := 0; op < ops; op++ {
		l := uint64(rng.Int63n(int64(span)))
		if rng.Intn(8) == 0 {
			l = MaxLines - 1 - l // the top of the tag range
		}
		dirty := rng.Intn(3) == 0
		var got, want any
		switch rng.Intn(9) {
		case 0, 1:
			got, want = c.Lookup(l, dirty), ref.Lookup(l, dirty)
		case 2, 3, 4:
			v, d, e := c.Insert(l, dirty)
			rv, rd, re := ref.Insert(l, dirty)
			got, want = [3]any{v, d, e}, [3]any{rv, rd, re}
		case 5:
			p, d := c.Invalidate(l)
			rp, rd := ref.Invalidate(l)
			got, want = [2]bool{p, d}, [2]bool{rp, rd}
		case 6:
			got, want = c.MarkDirty(l), ref.MarkDirty(l)
		case 7:
			c.Clean(l)
			ref.Clean(l)
			got, want = c.Dirty(l), ref.Dirty(l)
		case 8:
			got, want = c.Contains(l), ref.find(l) != nil
		}
		if got != want {
			return fmt.Errorf("op %d on line %#x: got %v, oracle %v", op, l, got, want)
		}
		if op%97 == 0 || op == ops-1 {
			if st, rst := stateOf(c), ref.state(); !reflect.DeepEqual(st, rst) {
				return fmt.Errorf("op %d: state diverged from the oracle", op)
			}
		}
	}
	return nil
}

// TestCacheStateRoundTrip pins the packed layout: each set's valid
// ways at its front, most recently used first, invalid ways last.
func TestCacheStateRoundTrip(t *testing.T) {
	c := NewCache(2*4*64, 4, 64) // 2 sets, 4 ways
	// Set 0: full, ranks 0..3, two dirty lines.
	for _, l := range []uint64{0, 2, 4, 6} {
		c.Insert(l, l%4 == 0)
	}
	c.Lookup(2, true)
	// Set 1: two valid ways, one invalidated between them, one never
	// used.
	c.Insert(1, false)
	c.Insert(3, true)
	c.Insert(5, false)
	c.Invalidate(3)
	c.Lookup(9, false)

	want := cacheState{Hits: 1, Misses: 1, Lines: []wayState{
		{Tag: 2, Valid: true, Dirty: true, LRU: 0},
		{Tag: 6, Valid: true, Dirty: false, LRU: 1},
		{Tag: 4, Valid: true, Dirty: true, LRU: 2},
		{Tag: 0, Valid: true, Dirty: true, LRU: 3},
		{Tag: 5, Valid: true, Dirty: false, LRU: 0},
		{Tag: 1, Valid: true, Dirty: false, LRU: 1},
		{},
		{},
	}}
	if st := stateOf(c); !reflect.DeepEqual(st, want) {
		t.Fatalf("state = %+v\nwant    %+v", st, want)
	}
}

var benchHit bool

// BenchmarkCacheLookup times the tag array's two extremes: a 2-way L1
// hit on the most recently used way, and an 8-way L3 miss whose insert
// evicts the least recently used way.
func BenchmarkCacheLookup(b *testing.B) {
	cfg := DefaultConfig()
	b.Run("l1-hit", func(b *testing.B) {
		c := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
		c.Insert(42, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchHit = c.Lookup(42, false)
		}
	})
	b.Run("l3-miss-evict", func(b *testing.B) {
		c := NewCache(cfg.L3Bytes/cfg.L3Banks, cfg.L3Ways, cfg.LineBytes)
		lines := uint64(2 * c.Sets() * c.Ways()) // twice capacity: every probe misses
		for l := uint64(0); l < lines/2; l++ {
			c.Insert(l, l%2 == 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := (lines/2 + uint64(i)) % lines
			if benchHit = c.Lookup(l, false); !benchHit {
				c.Insert(l, i%2 == 0)
			}
		}
	})
}

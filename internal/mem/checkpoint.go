package mem

import (
	"fmt"

	"fdt/internal/sim"
)

// This file implements the memory system's state-summary API: a deep,
// self-contained snapshot of every stateful structure — cache tag
// arrays, directory entries, DRAM row buffers and bank schedules, the
// bus schedule, store buffers and the heap cursor — taken at a
// quiescent point (no simulation process mid-access) and restorable
// into a fresh System built from the same Config. Together with the
// engine clock, the counter file and the power meter (composed one
// layer up in machine.Checkpoint) it lets a simulation resume
// warm: restored regions see the caches, open rows and reservation
// horizons the original run had, with no cold-start error.

// CacheLineState is one tag-array entry. LRU is the way's recency
// rank within its set (0 = most recently used); an invalid way has
// every field zero. A Cache reports each valid way's rank as its
// position in the set, and restores a state whose ranks sit at any
// positions.
type CacheLineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	LRU   uint8
}

// CacheState is a cache's complete state: the tag array plus its
// statistics.
type CacheState struct {
	Hits   uint64
	Misses uint64
	Evicts uint64
	Lines  []CacheLineState
}

// State captures the cache's state.
func (c *Cache) State() CacheState {
	st := CacheState{
		Hits: c.Hits, Misses: c.Misses, Evicts: c.Evicts,
		Lines: make([]CacheLineState, len(c.key)),
	}
	for i, k := range c.key {
		if k != 0 {
			st.Lines[i] = CacheLineState{Tag: uint64(k&keyMask - 1), Valid: true, Dirty: k&dirtyBit != 0, LRU: uint8(i % c.ways)}
		}
	}
	return st
}

// Restore overwrites the cache's state from a checkpoint taken on a
// cache of identical geometry. It places each valid way at its rank;
// the ranks of a set's n valid ways must be 0..n-1, each once.
func (c *Cache) Restore(st CacheState) {
	if len(st.Lines) != len(c.key) {
		panic(fmt.Sprintf("mem: restoring %d cache lines into a %d-line cache", len(st.Lines), len(c.key)))
	}
	c.Hits, c.Misses, c.Evicts = st.Hits, st.Misses, st.Evicts
	clear(c.key)
	for lo := 0; lo < len(c.key); lo += c.ways {
		lines, keys := st.Lines[lo:lo+c.ways], c.key[lo:lo+c.ways]
		n := 0
		for _, l := range lines {
			if l.Valid {
				n++
			}
		}
		for _, l := range lines {
			if !l.Valid {
				continue
			}
			if l.Tag >= MaxLines || int(l.LRU) >= n || keys[l.LRU] != 0 {
				panic(fmt.Sprintf("mem: restoring line %#x with rank %d into a set of %d valid ways, or a rank given twice", l.Tag, l.LRU, n))
			}
			keys[l.LRU] = uint32(l.Tag) + 1
			if l.Dirty {
				keys[l.LRU] |= dirtyBit
			}
		}
	}
}

// DirEntryState is one directory entry.
type DirEntryState struct {
	Sharers  uint64
	Owner    int
	Modified bool
}

// State captures the directory's entry table.
func (d *Directory) State() map[uint64]DirEntryState {
	st := make(map[uint64]DirEntryState, d.n)
	d.ForEach(func(line, sharers uint64, owner int, modified bool) {
		st[line] = DirEntryState{Sharers: sharers, Owner: owner, Modified: modified}
	})
	return st
}

// Restore overwrites the directory's entry table from a checkpoint.
func (d *Directory) Restore(st map[uint64]DirEntryState) {
	d.reset(dirInitialSlots)
	for line, e := range st {
		if e.Owner < 0 || e.Owner >= 64 {
			panic(fmt.Sprintf("mem: restoring directory line %#x owned by core %d", line, e.Owner))
		}
		s := d.entry(line)
		s.sharers, s.owner, s.modified = e.Sharers, uint8(e.Owner), e.Modified
	}
}

// DRAMBankState is one bank's schedule and row buffer. The row-hit
// counters live in the shared counter set and restore with it.
type DRAMBankState struct {
	Res     sim.ResourceState
	OpenRow uint64
	HasOpen bool
}

// State captures every bank.
func (d *DRAM) State() []DRAMBankState {
	st := make([]DRAMBankState, len(d.banks))
	for i, b := range d.banks {
		st[i] = DRAMBankState{Res: b.res.State(), OpenRow: b.openRow, HasOpen: b.hasOpen}
	}
	return st
}

// Restore overwrites every bank from a checkpoint.
func (d *DRAM) Restore(st []DRAMBankState) {
	if len(st) != len(d.banks) {
		panic(fmt.Sprintf("mem: restoring %d DRAM banks into %d", len(st), len(d.banks)))
	}
	for i, b := range d.banks {
		b.res.Restore(st[i].Res)
		b.openRow, b.hasOpen = st[i].OpenRow, st[i].HasOpen
	}
}

// PortState is one core's private-hierarchy state.
type PortState struct {
	L1 CacheState
	L2 CacheState
	// StoreBuffer holds the completion times of outstanding posted
	// stores; empty at true quiescence, preserved for completeness.
	StoreBuffer []uint64
}

// L3BankState is one shared-cache bank's state.
type L3BankState struct {
	Cache CacheState
	Port  sim.ResourceState
}

// State is the memory system's complete checkpointable state.
type State struct {
	Heap      uint64
	Ports     []PortState
	L3        []L3BankState
	Directory map[uint64]DirEntryState
	DRAM      []DRAMBankState
	Bus       sim.ResourceState
}

// Checkpoint captures the system's state. Call it only at quiescence
// (between thread.Run invocations, or after a run completes): the
// snapshot cannot represent a process mid-access.
func (s *System) Checkpoint() *State {
	st := &State{
		Heap:      s.heap,
		Ports:     make([]PortState, len(s.ports)),
		L3:        make([]L3BankState, len(s.l3)),
		Directory: s.Dir.State(),
		DRAM:      s.DRAM.State(),
		Bus:       s.Bus.data.State(),
	}
	for i, pt := range s.ports {
		st.Ports[i] = PortState{
			L1:          pt.l1.State(),
			L2:          pt.l2.State(),
			StoreBuffer: append([]uint64(nil), pt.sb...),
		}
	}
	for i, b := range s.l3 {
		st.L3[i] = L3BankState{Cache: b.cache.State(), Port: b.port.State()}
	}
	return st
}

// Restore overwrites the system's state from a checkpoint taken on a
// system with an identical configuration.
func (s *System) Restore(st *State) {
	if len(st.Ports) != len(s.ports) || len(st.L3) != len(s.l3) {
		panic(fmt.Sprintf("mem: restoring %d ports/%d L3 banks into %d/%d — config mismatch",
			len(st.Ports), len(st.L3), len(s.ports), len(s.l3)))
	}
	s.heap = st.Heap
	for i, pt := range s.ports {
		pt.l1.Restore(st.Ports[i].L1)
		pt.l2.Restore(st.Ports[i].L2)
		pt.sb = append(pt.sb[:0], st.Ports[i].StoreBuffer...)
	}
	for i, b := range s.l3 {
		b.cache.Restore(st.L3[i].Cache)
		b.port.Restore(st.L3[i].Port)
	}
	s.Dir.Restore(st.Directory)
	s.DRAM.Restore(st.DRAM)
	s.Bus.data.Restore(st.Bus)
}

package mem

import (
	"math/bits"

	"fdt/internal/counters"
	"fdt/internal/invariant"
)

// Directory implements the distributed directory-based MESI protocol
// of Table 1. Each L3 bank owns the directory slice for its lines; the
// System layer charges ring latency to reach the slice, so the
// Directory itself is pure bookkeeping: who caches each line and in
// what state.
//
// States are tracked per line as either Shared (any number of clean
// copies) or Modified (exactly one owner whose private copy is
// authoritative). Exclusive is folded into Modified-clean: the timing
// consequences the paper's limiters depend on — invalidation
// round-trips and forced writebacks — are identical.
//
// The entries live in an open-addressed table keyed by line: linear
// probing from a Fibonacci hash of the line, with backward-shift
// deletion, so a lookup touches one or two adjacent slots and no
// tombstones build up as lines come and go. A slot packs an entry
// into 16 bytes; a Go map slot of the same entry took 32.
type Directory struct {
	slots []dirSlot // power-of-two length, at most 3/4 occupied
	shift uint      // 64 - log2(len(slots)): the hash keeps the top bits
	n     int       // occupied slots

	invals *counters.Counter
	wbs    *counters.Counter

	// ck/checked arm the continuous single-writer check after every
	// state transition.
	ck      *invariant.Checker
	checked bool

	// faultDropDowngrade is a mutation-test hook (see DESIGN.md
	// Section 10): when set, a read miss that hits a remote Modified
	// line still triggers the writeback but forgets to downgrade the
	// owner — a protocol bug the "dir-single-writer" invariant must
	// catch. Never set outside tests.
	faultDropDowngrade bool
}

// dirSlot is one table slot: a line's entry, or an empty slot.
type dirSlot struct {
	sharers  uint64 // bitmask of cores with a copy
	key      uint32 // line address + 1 (lines are below MaxLines); 0 marks an empty slot
	owner    uint8  // meaningful when modified
	modified bool
}

// dirInitialSlots sizes a new directory's table; it doubles as lines
// arrive.
const dirInitialSlots = 1024

// NewDirectory builds an empty directory and registers its counters.
func NewDirectory(ctrs *counters.Set) *Directory {
	d := &Directory{
		invals: ctrs.Counter(counters.CoherenceInvalidations),
		wbs:    ctrs.Counter(counters.CoherenceWritebacks),
	}
	d.reset(dirInitialSlots)
	return d
}

// reset empties the table and sizes it to size slots, a power of two.
func (d *Directory) reset(size int) {
	d.slots = make([]dirSlot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	d.n = 0
}

// dirKey is the table key of line.
func dirKey(line uint64) uint32 {
	if line >= MaxLines {
		lineOutOfRange(line)
	}
	return uint32(line) + 1
}

// home is the slot a key's probe starts at.
func (d *Directory) home(key uint32) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> d.shift)
}

// find returns the slot holding key and true, or the empty slot that
// ends its probe and false.
func (d *Directory) find(key uint32) (int, bool) {
	mask := len(d.slots) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// entry returns line's slot, claiming an empty one (growing the table
// first if it is full) when the line has no entry yet.
func (d *Directory) entry(line uint64) *dirSlot {
	key := dirKey(line)
	i, ok := d.find(key)
	if !ok {
		if 4*(d.n+1) > 3*len(d.slots) {
			d.grow()
			i, _ = d.find(key)
		}
		d.slots[i].key = key
		d.n++
	}
	return &d.slots[i]
}

// lookup returns line's slot, or nil when the line has no entry.
func (d *Directory) lookup(line uint64) *dirSlot {
	if i, ok := d.find(dirKey(line)); ok {
		return &d.slots[i]
	}
	return nil
}

// grow doubles the table and reinserts every entry.
func (d *Directory) grow() {
	old := d.slots
	d.reset(2 * len(old))
	for _, s := range old {
		if s.key != 0 {
			i, _ := d.find(s.key)
			d.slots[i] = s
			d.n++
		}
	}
}

// remove empties slot i by backward shift: each later entry of the
// probe run whose home lies at or before the hole moves into it, and
// the hole moves to where that entry was, until the run ends. The
// table never holds tombstones.
func (d *Directory) remove(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].key != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].key))&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
	d.n--
}

// ReadMiss records core obtaining a shared copy of line. If another
// core held the line modified, that owner is returned with
// needWriteback=true: the caller must charge the ownership-transfer
// latency and clean the owner's private copy.
func (d *Directory) ReadMiss(line uint64, core int) (needWriteback bool, owner int) {
	e := d.entry(line)
	if e.modified && int(e.owner) != core {
		needWriteback = true
		owner = int(e.owner)
		d.wbs.Inc()
		if !d.faultDropDowngrade {
			e.modified = false
		}
	}
	e.sharers |= 1 << uint(core)
	d.checkEntry(line, e)
	return needWriteback, owner
}

// WriteMiss records core obtaining exclusive ownership of line. It
// returns the bitmask of other cores whose copies must be invalidated
// and, if a different core held the line modified, that owner with
// needWriteback=true.
func (d *Directory) WriteMiss(line uint64, core int) (invalidate uint64, needWriteback bool, owner int) {
	e := d.entry(line)
	self := uint64(1) << uint(core)
	invalidate = e.sharers &^ self
	if invalidate != 0 {
		d.invals.Add(uint64(bits.OnesCount64(invalidate)))
	}
	if e.modified && int(e.owner) != core {
		needWriteback = true
		owner = int(e.owner)
		d.wbs.Inc()
	}
	e.sharers, e.owner, e.modified = self, uint8(core), true
	d.checkEntry(line, e)
	return invalidate, needWriteback, owner
}

// Evict records that core no longer caches line (private-hierarchy
// eviction). When the last sharer leaves, the entry is dropped.
func (d *Directory) Evict(line uint64, core int) {
	i, ok := d.find(dirKey(line))
	if !ok {
		return
	}
	e := &d.slots[i]
	e.sharers &^= 1 << uint(core)
	if e.sharers == 0 {
		d.remove(i)
		return
	}
	if e.modified && int(e.owner) == core {
		e.modified = false
	}
	d.checkEntry(line, e)
}

// Drop removes the directory entry entirely (L3 back-invalidation) and
// returns the bitmask of cores that held copies so the caller can
// invalidate their private caches.
func (d *Directory) Drop(line uint64) (holders uint64) {
	i, ok := d.find(dirKey(line))
	if !ok {
		return 0
	}
	holders = d.slots[i].sharers
	d.remove(i)
	return holders
}

// setChecker arms the continuous single-writer check (called via
// System.SetChecker).
func (d *Directory) setChecker(ck *invariant.Checker) {
	d.ck = ck
	d.checked = true
}

// FaultDropDowngrade arms a mutation-test hook: read misses that force
// a remote writeback no longer downgrade the owner to Shared. The
// "dir-single-writer" invariant must catch it.
func (d *Directory) FaultDropDowngrade() { d.faultDropDowngrade = true }

// checkEntry verifies the MESI single-writer/multi-reader rule for
// line's entry e after a state transition: a Modified line has exactly
// its owner as sharer. The directory has no clock, so violations carry
// cycle 0.
func (d *Directory) checkEntry(line uint64, e *dirSlot) {
	if !d.checked {
		return
	}
	d.ck.Pass(1)
	if e.modified && e.sharers != 1<<uint(e.owner) {
		d.ck.Failf("dir-single-writer", 0,
			"line %#x modified by core %d but sharer mask is %#b (must be exactly the owner)",
			line, e.owner, e.sharers)
	}
}

// ForEach visits every directory entry (used by the quiescent
// directory-vs-cache coherence walk). fn must not change the
// directory.
func (d *Directory) ForEach(fn func(line uint64, sharers uint64, owner int, modified bool)) {
	for _, s := range d.slots {
		if s.key != 0 {
			fn(uint64(s.key-1), s.sharers, int(s.owner), s.modified)
		}
	}
}

// Sharers reports the cores currently recorded as caching line
// (test aid).
func (d *Directory) Sharers(line uint64) []int {
	e := d.lookup(line)
	if e == nil {
		return nil
	}
	var out []int
	for s := e.sharers; s != 0; s &= s - 1 {
		out = append(out, bits.TrailingZeros64(s))
	}
	return out
}

// IsModified reports whether line is in Modified state and by whom
// (test aid).
func (d *Directory) IsModified(line uint64) (bool, int) {
	e := d.lookup(line)
	if e == nil || !e.modified {
		return false, -1
	}
	return true, int(e.owner)
}

// Entries reports how many lines the directory currently tracks.
func (d *Directory) Entries() int { return d.n }

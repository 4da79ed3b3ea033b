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
// The entries live in a table indexed directly by line number, split
// into pages of dirPageLines lines that are allocated the first time
// one of their lines gets an entry. A slot is 16 bytes and holds an
// entry exactly when its sharer mask is non-zero, so a lookup is two
// indexed loads and a removal zeroes the slot.
type Directory struct {
	pages []*dirPage // pages[line>>dirPageShift]; nil until first used
	n     int        // entries: slots with sharers != 0

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

// dirSlot is one line's entry; a zero sharer mask marks no entry.
type dirSlot struct {
	sharers  uint64 // bitmask of cores with a copy
	owner    uint8  // meaningful when modified
	modified bool
}

const (
	dirPageShift = 12
	dirPageLines = 1 << dirPageShift
)

// dirPage holds the slots of dirPageLines consecutive lines (64 KB).
type dirPage [dirPageLines]dirSlot

// NewDirectory builds an empty directory and registers its counters.
func NewDirectory(ctrs *counters.Set) *Directory {
	return &Directory{
		invals: ctrs.Counter(counters.CoherenceInvalidations),
		wbs:    ctrs.Counter(counters.CoherenceWritebacks),
	}
}

// entry returns line's slot, counting it as an entry (the caller's
// transition gives it a sharer).
func (d *Directory) entry(line uint64) *dirSlot {
	pi := line >> dirPageShift
	if pi >= uint64(len(d.pages)) || d.pages[pi] == nil {
		d.addPage(line)
	}
	e := &d.pages[pi][line&(dirPageLines-1)]
	if e.sharers == 0 {
		d.n++
	}
	return e
}

// addPage allocates the page holding line, the first of its lines to
// get an entry.
func (d *Directory) addPage(line uint64) {
	if line >= MaxLines {
		lineOutOfRange(line)
	}
	pi := int(line >> dirPageShift)
	for pi >= len(d.pages) {
		d.pages = append(d.pages, nil)
	}
	d.pages[pi] = new(dirPage)
}

// lookup returns line's slot, or nil when the line has no entry.
func (d *Directory) lookup(line uint64) *dirSlot {
	if pi := line >> dirPageShift; pi < uint64(len(d.pages)) {
		if pg := d.pages[pi]; pg != nil {
			if e := &pg[line&(dirPageLines-1)]; e.sharers != 0 {
				return e
			}
		}
	}
	return nil
}

// remove drops e's entry.
func (d *Directory) remove(e *dirSlot) {
	*e = dirSlot{}
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
	e := d.lookup(line)
	if e == nil {
		return
	}
	e.sharers &^= 1 << uint(core)
	if e.sharers == 0 {
		d.remove(e)
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
	e := d.lookup(line)
	if e == nil {
		return 0
	}
	holders = e.sharers
	d.remove(e)
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
// directory-vs-cache coherence walk) in ascending line order. fn must
// not change the directory.
func (d *Directory) ForEach(fn func(line uint64, sharers uint64, owner int, modified bool)) {
	for pi, pg := range d.pages {
		if pg == nil {
			continue
		}
		for i, s := range pg {
			if s.sharers != 0 {
				fn(uint64(pi)<<dirPageShift|uint64(i), s.sharers, int(s.owner), s.modified)
			}
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

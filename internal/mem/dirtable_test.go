package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// pageSpread maps a draw from [0, 3000) onto 750 lines in each of
// four directory pages: the first, the second, the sixth, and the last,
// whose 750 lines end at the highest line, MaxLines-1.
func pageSpread(i int) uint64 {
	off := uint64(i % 750)
	switch i / 750 {
	case 0:
		return off
	case 1:
		return dirPageLines + off
	case 2:
		return 5*dirPageLines + off
	}
	return MaxLines - 750 + off
}

// checkForEach verifies that ForEach visits each entry once, in
// ascending line order, and as many as Entries counts.
func checkForEach(t *testing.T, d *Directory) {
	t.Helper()
	n, prev := 0, uint64(0)
	d.ForEach(func(line, sharers uint64, _ int, _ bool) {
		if n > 0 && line <= prev {
			t.Fatalf("ForEach visited line %#x after %#x", line, prev)
		}
		if sharers == 0 {
			t.Fatalf("ForEach visited line %#x with no sharers", line)
		}
		n, prev = n+1, line
	})
	if n != d.Entries() {
		t.Fatalf("ForEach visited %d lines, but Entries reports %d", n, d.Entries())
	}
}

func TestDirTableForEachVisitsEachEntryOnce(t *testing.T) {
	d, _ := newDir()
	rng := rand.New(rand.NewSource(3))
	want := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		line, core := pageSpread(rng.Intn(3000)), rng.Intn(8)
		if rng.Intn(3) == 0 {
			d.Drop(line)
			delete(want, line)
		} else {
			d.ReadMiss(line, core)
			want[line] |= 1 << uint(core)
		}
	}
	checkForEach(t, d)
	got := map[uint64]uint64{}
	d.ForEach(func(line, sharers uint64, _ int, _ bool) { got[line] = sharers })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach visited %d entries, want %d", len(got), len(want))
	}
}

// refEntry is one directory entry of the map reference.
type refEntry struct {
	Sharers  uint64
	Owner    int
	Modified bool
}

// refDir is the directory protocol over a Go map: the reference the
// table is checked against.
type refDir map[uint64]refEntry

// entries reads d's table through ForEach, in the reference's form.
func entries(d *Directory) refDir {
	out := refDir{}
	d.ForEach(func(line, sharers uint64, owner int, modified bool) {
		out[line] = refEntry{Sharers: sharers, Owner: owner, Modified: modified}
	})
	return out
}

func (r refDir) readMiss(line uint64, core int) (bool, int) {
	e := r[line]
	wb, owner := e.Modified && e.Owner != core, 0
	if wb {
		owner, e.Modified = e.Owner, false
	}
	e.Sharers |= 1 << uint(core)
	r[line] = e
	return wb, owner
}

func (r refDir) writeMiss(line uint64, core int) (uint64, bool, int) {
	e := r[line]
	inval := e.Sharers &^ (1 << uint(core))
	wb, owner := e.Modified && e.Owner != core, 0
	if wb {
		owner = e.Owner
	}
	r[line] = refEntry{Sharers: 1 << uint(core), Owner: core, Modified: true}
	return inval, wb, owner
}

func (r refDir) evict(line uint64, core int) {
	e, ok := r[line]
	if !ok {
		return
	}
	if e.Sharers &^= 1 << uint(core); e.Sharers == 0 {
		delete(r, line)
		return
	}
	if e.Modified && e.Owner == core {
		e.Modified = false
	}
	r[line] = e
}

func TestDirTableMatchesMapDirectory(t *testing.T) {
	// Random protocol traffic over lines spread across four pages, up
	// to the highest line: every answer and the final entries match the
	// map-based reference, and ForEach agrees with Entries throughout.
	d, _ := newDir()
	ref := refDir{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60000; i++ {
		line, core := pageSpread(rng.Intn(3000)), rng.Intn(16)
		switch rng.Intn(4) {
		case 0:
			wb, o := d.ReadMiss(line, core)
			rwb, ro := ref.readMiss(line, core)
			if wb != rwb || o != ro {
				t.Fatalf("op %d ReadMiss(%d, %d) = (%v, %d), want (%v, %d)", i, line, core, wb, o, rwb, ro)
			}
		case 1:
			inv, wb, o := d.WriteMiss(line, core)
			rinv, rwb, ro := ref.writeMiss(line, core)
			if inv != rinv || wb != rwb || o != ro {
				t.Fatalf("op %d WriteMiss(%d, %d) = (%#b, %v, %d), want (%#b, %v, %d)",
					i, line, core, inv, wb, o, rinv, rwb, ro)
			}
		case 2:
			d.Evict(line, core)
			ref.evict(line, core)
		case 3:
			if h, rh := d.Drop(line), ref[line].Sharers; h != rh {
				t.Fatalf("op %d Drop(%d) = %#b, want %#b", i, line, h, rh)
			}
			delete(ref, line)
		}
		if i%20000 == 19999 {
			checkForEach(t, d)
		}
	}
	checkForEach(t, d)
	if got := entries(d); !reflect.DeepEqual(got, ref) {
		t.Errorf("final entries: %d, want %d", len(got), len(ref))
	}
}

func TestDirTableTransitionsAllocateNothing(t *testing.T) {
	d, _ := newDir()
	d.ReadMiss(1, 0) // the page exists; transitions reuse its slots
	line := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		line = (line + 1) % 64
		d.ReadMiss(line, 1)
		d.ReadMiss(line, 3)
		d.WriteMiss(line, 2)
		d.Evict(line, 2)
		d.ReadMiss(line, 4)
		d.Drop(line)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per round of directory transitions, want 0", allocs)
	}
}

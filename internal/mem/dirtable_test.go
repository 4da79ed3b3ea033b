package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkDirTable verifies the open-addressed table's invariants: the
// occupied count matches, and every entry is reachable from its home
// slot without crossing an empty one (backward-shift deletion must
// never cut a probe run).
func checkDirTable(t *testing.T, d *Directory) {
	t.Helper()
	mask := len(d.slots) - 1
	n := 0
	for i, s := range d.slots {
		if s.key == 0 {
			continue
		}
		n++
		for j := d.home(s.key); j != i; j = (j + 1) & mask {
			if d.slots[j].key == 0 {
				t.Fatalf("line %#x in slot %d is cut off from its home %d by the empty slot %d",
					s.key-1, i, d.home(s.key), j)
			}
		}
	}
	if n != d.n || n != d.Entries() {
		t.Fatalf("%d occupied slots, but the directory counts %d", n, d.n)
	}
}

// linesHomedAt returns the first k lines whose probe starts at slot
// home of d's current table.
func linesHomedAt(d *Directory, home, k int) []uint64 {
	var out []uint64
	for line := uint64(0); len(out) < k; line++ {
		if d.home(dirKey(line)) == home {
			out = append(out, line)
		}
	}
	return out
}

func TestDirTableDeleteAcrossWrap(t *testing.T) {
	// Three lines homed at the last slot fill it and wrap to slots 0
	// and 1; a line homed at slot 0 lands in slot 2. Deleting each in
	// turn must shift the rest back across the wrap so every one stays
	// reachable.
	d, _ := newDir()
	last := len(d.slots) - 1
	lines := append(linesHomedAt(d, last, 3), linesHomedAt(d, 0, 1)...)
	for i, line := range lines {
		d.ReadMiss(line, i)
	}
	for i, want := range []int{last, 0, 1, 2} {
		if got, _ := d.find(dirKey(lines[i])); got != want {
			t.Fatalf("line %d sits in slot %d, want %d", i, got, want)
		}
	}
	checkDirTable(t, d)

	d.Evict(lines[0], 0) // the run's head, in the last slot
	checkDirTable(t, d)
	if got, _ := d.find(dirKey(lines[1])); got != last {
		t.Errorf("after deleting the head, line 1 sits in slot %d, want %d", got, last)
	}
	if got, _ := d.find(dirKey(lines[3])); got != 1 {
		t.Errorf("after deleting the head, the slot-0 line sits in slot %d, want 1", got)
	}
	if d.Drop(lines[2]) != 1<<2 { // now in slot 0, past the wrap
		t.Error("Drop of the wrapped line lost its holder")
	}
	checkDirTable(t, d)
	for i, line := range []uint64{lines[1], lines[3]} {
		if got := d.Sharers(line); len(got) != 1 {
			t.Errorf("surviving line %d: sharers %v", i, got)
		}
	}
	if d.Sharers(lines[0]) != nil || d.Sharers(lines[2]) != nil {
		t.Error("a deleted line still has sharers")
	}
}

func TestDirTableGrows(t *testing.T) {
	d, _ := newDir()
	size := len(d.slots)
	const lines = 5000
	for line := uint64(0); line < lines; line++ {
		d.WriteMiss(line*7, int(line%64))
	}
	if len(d.slots) <= size || 4*d.n > 3*len(d.slots) {
		t.Fatalf("%d entries in %d slots (started with %d)", d.n, len(d.slots), size)
	}
	checkDirTable(t, d)
	for line := uint64(0); line < lines; line++ {
		if mod, owner := d.IsModified(line * 7); !mod || owner != int(line%64) {
			t.Fatalf("line %d after growth: (%v, %d)", line*7, mod, owner)
		}
	}
}

func TestDirTableForEachVisitsEachEntryOnce(t *testing.T) {
	d, _ := newDir()
	rng := rand.New(rand.NewSource(3))
	want := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		line, core := uint64(rng.Intn(1500)), rng.Intn(8)
		if rng.Intn(3) == 0 {
			d.Drop(line)
			delete(want, line)
		} else {
			d.ReadMiss(line, core)
			want[line] |= 1 << uint(core)
		}
	}
	checkDirTable(t, d)
	got := map[uint64]uint64{}
	d.ForEach(func(line, sharers uint64, _ int, _ bool) {
		if _, dup := got[line]; dup {
			t.Errorf("line %#x visited twice", line)
		}
		got[line] = sharers
	})
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
	// Random protocol traffic over a few table sizes' worth of lines:
	// every answer and the final entries match the map-based
	// reference, and the table keeps its invariants throughout.
	d, _ := newDir()
	ref := refDir{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60000; i++ {
		line, core := uint64(rng.Intn(3000)), rng.Intn(16)
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
			checkDirTable(t, d)
		}
	}
	checkDirTable(t, d)
	if got := entries(d); !reflect.DeepEqual(got, ref) {
		t.Errorf("final entries: %d, want %d", len(got), len(ref))
	}
}

func TestDirTableTransitionsAllocateNothing(t *testing.T) {
	d, _ := newDir()
	d.ReadMiss(1, 0) // the table is sized; transitions reuse slots
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

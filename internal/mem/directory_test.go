package mem

import (
	"reflect"
	"testing"
	"testing/quick"

	"fdt/internal/counters"
)

func newDir() (*Directory, *counters.Set) {
	ctrs := counters.NewSet()
	return NewDirectory(ctrs), ctrs
}

func TestDirectoryReadThenRead(t *testing.T) {
	d, _ := newDir()
	if wb, _ := d.ReadMiss(100, 0); wb {
		t.Error("first read demanded writeback")
	}
	if wb, _ := d.ReadMiss(100, 1); wb {
		t.Error("second clean read demanded writeback")
	}
	if got := d.Sharers(100); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("sharers = %v, want [0 1]", got)
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	d, ctrs := newDir()
	d.ReadMiss(7, 0)
	d.ReadMiss(7, 1)
	d.ReadMiss(7, 2)
	inval, wb, _ := d.WriteMiss(7, 1)
	if wb {
		t.Error("write over clean sharers demanded writeback")
	}
	if inval != 1<<0|1<<2 {
		t.Errorf("invalidate = %#b, want cores 0 and 2", inval)
	}
	if mod, owner := d.IsModified(7); !mod || owner != 1 {
		t.Errorf("IsModified = (%v,%d), want (true,1)", mod, owner)
	}
	if got := ctrs.Counter(counters.CoherenceInvalidations).Read(); got != 2 {
		t.Errorf("invalidation counter = %d, want 2", got)
	}
}

func TestDirectoryReadAfterWriteForcesWriteback(t *testing.T) {
	d, ctrs := newDir()
	d.WriteMiss(9, 3)
	wb, owner := d.ReadMiss(9, 5)
	if !wb || owner != 3 {
		t.Errorf("ReadMiss = (%v,%d), want (true,3)", wb, owner)
	}
	if mod, _ := d.IsModified(9); mod {
		t.Error("line still modified after downgrade")
	}
	if got := ctrs.Counter(counters.CoherenceWritebacks).Read(); got != 1 {
		t.Errorf("writeback counter = %d, want 1", got)
	}
}

func TestDirectoryWriteAfterWriteTransfersOwnership(t *testing.T) {
	d, _ := newDir()
	d.WriteMiss(4, 0)
	inval, wb, owner := d.WriteMiss(4, 1)
	if !wb || owner != 0 {
		t.Errorf("writeback = (%v,%d), want (true,0)", wb, owner)
	}
	if inval != 1<<0 {
		t.Errorf("invalidate = %#b, want core 0", inval)
	}
	if mod, o := d.IsModified(4); !mod || o != 1 {
		t.Errorf("new owner = (%v,%d), want (true,1)", mod, o)
	}
}

func TestDirectoryOwnerRewrites(t *testing.T) {
	d, _ := newDir()
	d.WriteMiss(4, 2)
	inval, wb, _ := d.WriteMiss(4, 2)
	if wb || inval != 0 {
		t.Errorf("owner re-write produced inval=%v wb=%v", inval, wb)
	}
}

func TestDirectoryEvictLastSharerDropsEntry(t *testing.T) {
	d, _ := newDir()
	d.ReadMiss(1, 0)
	d.ReadMiss(1, 1)
	d.Evict(1, 0)
	if got := d.Sharers(1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("sharers = %v, want [1]", got)
	}
	d.Evict(1, 1)
	if d.Entries() != 0 {
		t.Errorf("entries = %d after all evictions, want 0", d.Entries())
	}
}

func TestDirectoryEvictOwnerDropsModifiedEntry(t *testing.T) {
	// Modified implies exactly one sharer, so the owner's eviction is
	// the last sharer's eviction and must drop the entry entirely.
	d, _ := newDir()
	d.WriteMiss(2, 0)
	d.Evict(2, 0)
	if d.Entries() != 0 {
		t.Error("owner eviction left a directory entry")
	}
	if mod, _ := d.IsModified(2); mod {
		t.Error("owner eviction left modified state")
	}
}

func TestDirectoryNonSharerEvictIsNoop(t *testing.T) {
	d, _ := newDir()
	d.WriteMiss(2, 0)
	d.Evict(2, 1) // core 1 holds nothing
	if mod, owner := d.IsModified(2); !mod || owner != 0 {
		t.Errorf("non-sharer eviction disturbed state: (%v,%d)", mod, owner)
	}
}

func TestDirectoryDropReturnsHolders(t *testing.T) {
	d, _ := newDir()
	d.ReadMiss(6, 2)
	d.ReadMiss(6, 5)
	holders := d.Drop(6)
	if holders != 1<<2|1<<5 {
		t.Errorf("holders = %#b, want cores 2 and 5", holders)
	}
	if d.Entries() != 0 {
		t.Error("entry survived Drop")
	}
	if d.Drop(6) != 0 {
		t.Error("second Drop returned holders")
	}
}

func TestDirectoryEvictUnknownLineIsNoop(t *testing.T) {
	d, _ := newDir()
	d.Evict(99, 0) // must not panic or create entries
	if d.Entries() != 0 {
		t.Error("Evict created an entry")
	}
}

func TestPropertyDirectoryAtMostOneModifiedOwner(t *testing.T) {
	// Random op sequences never leave a line modified with more than
	// one recorded sharer unless reads joined after the write.
	f := func(ops []uint16) bool {
		d, _ := newDir()
		const line = 42
		for _, op := range ops {
			core := int(op % 8)
			switch (op / 8) % 3 {
			case 0:
				d.ReadMiss(line, core)
			case 1:
				d.WriteMiss(line, core)
				// Invariant: immediately after a write, exactly one sharer.
				if s := d.Sharers(line); len(s) != 1 || s[0] != core {
					return false
				}
				if mod, owner := d.IsModified(line); !mod || owner != core {
					return false
				}
			case 2:
				d.Evict(line, core)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

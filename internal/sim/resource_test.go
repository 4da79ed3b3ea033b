package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceUncontended(t *testing.T) {
	e := NewEngine()
	r := new(Resource)
	e.Spawn("a", func(p *Proc) {
		start := r.Acquire(p, 32)
		if start != 0 {
			t.Errorf("start = %d, want 0", start)
		}
		if p.Now() != 0 {
			t.Errorf("acquire moved clock to %d", p.Now())
		}
	})
	e.Run()
	if r.BusyCycles() != 32 {
		t.Errorf("busy = %d, want 32", r.BusyCycles())
	}
	if r.Grants() != 1 {
		t.Errorf("grants = %d, want 1", r.Grants())
	}
}

func TestResourceSerializesContenders(t *testing.T) {
	e := NewEngine()
	r := new(Resource)
	starts := map[string]uint64{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			starts[name] = r.Acquire(p, 10)
		})
	}
	e.Run()
	// All three request at cycle 0; FIFO slots are 0, 10, 20.
	if starts["a"] != 0 || starts["b"] != 10 || starts["c"] != 20 {
		t.Errorf("starts = %v, want a:0 b:10 c:20", starts)
	}
	if r.BusyCycles() != 30 {
		t.Errorf("busy = %d, want 30", r.BusyCycles())
	}
}

func TestResourceAcquireAndHoldBlocksFullSlot(t *testing.T) {
	e := NewEngine()
	r := new(Resource)
	var end uint64
	e.Spawn("a", func(p *Proc) {
		r.AcquireAndHold(p, 200)
		end = p.Now()
	})
	e.Run()
	if end != 200 {
		t.Errorf("hold ended at %d, want 200", end)
	}
}

func TestResourceIdleGapNotCounted(t *testing.T) {
	e := NewEngine()
	r := new(Resource)
	e.Spawn("a", func(p *Proc) {
		r.AcquireAndHold(p, 10)
		p.Advance(100) // idle gap
		r.AcquireAndHold(p, 10)
	})
	e.Run()
	if r.BusyCycles() != 20 {
		t.Errorf("busy = %d, want 20 (idle gap must not count)", r.BusyCycles())
	}
	if e.Now() != 120 {
		t.Errorf("clock = %d, want 120", e.Now())
	}
}

func TestResourceResetKeepsHorizon(t *testing.T) {
	e := NewEngine()
	r := new(Resource)
	e.Spawn("a", func(p *Proc) {
		r.Acquire(p, 50) // occupied until cycle 50
		r.Reset()
		start := r.Acquire(p, 10)
		if start != 50 {
			t.Errorf("post-reset start = %d, want 50 (horizon kept)", start)
		}
	})
	e.Run()
	if r.BusyCycles() != 10 {
		t.Errorf("busy = %d, want 10 after reset", r.BusyCycles())
	}
}

func TestPropertyResourceBusyEqualsSumOfOccupancies(t *testing.T) {
	f := func(occs []uint8) bool {
		e := NewEngine()
		r := new(Resource)
		var want uint64
		for i, o := range occs {
			if i >= 32 {
				break
			}
			o := uint64(o%64 + 1)
			want += o
			e.Spawn("p", func(p *Proc) { r.AcquireAndHold(p, o) })
		}
		e.Run()
		return r.BusyCycles() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResourceNeverOverlaps(t *testing.T) {
	// Slots granted by a resource must be disjoint: with N requests of
	// equal occupancy arriving at cycle 0, the k-th start is k*occ.
	f := func(n uint8, occ uint8) bool {
		count := int(n%16) + 1
		o := uint64(occ%32) + 1
		e := NewEngine()
		r := new(Resource)
		var starts []uint64
		for i := 0; i < count; i++ {
			e.Spawn("p", func(p *Proc) {
				starts = append(starts, r.Acquire(p, o))
			})
		}
		e.Run()
		if len(starts) != count {
			return false
		}
		for k, s := range starts {
			if s != uint64(k)*o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

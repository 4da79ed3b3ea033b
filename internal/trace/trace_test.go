package trace

import "testing"

func TestRingWraparound(t *testing.T) {
	tr := New(4, CatAll)
	for i := 0; i < 10; i++ {
		tr.Emit(CatSim, Event{Cycle: uint64(i), Name: "e"})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if got := tr.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	// Overflow keeps the newest events, oldest-first in the snapshot.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Errorf("Events[%d].Cycle = %d, want %d", i, ev.Cycle, want)
		}
	}
}

func TestRingExactFit(t *testing.T) {
	tr := New(3, CatAll)
	for i := 0; i < 3; i++ {
		tr.Emit(CatSim, Event{Cycle: uint64(i)})
	}
	if tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("Len = %d Dropped = %d, want 3, 0", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Cycle != uint64(i) {
			t.Errorf("Events[%d].Cycle = %d, want %d", i, ev.Cycle, i)
		}
	}
}

func TestCapacityZeroDisablesCapture(t *testing.T) {
	tr := New(0, CatAll)
	for i := 0; i < 3; i++ {
		tr.Emit(CatMem, Event{Cycle: uint64(i)})
	}
	if tr.Len() != 0 || tr.Cap() != 0 {
		t.Fatalf("Len = %d Cap = %d, want 0, 0", tr.Len(), tr.Cap())
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3 (capacity-0 counts every accepted emit)", got)
	}
	if got := tr.Emitted(); got != 3 {
		t.Fatalf("Emitted = %d, want 3", got)
	}
	if evs := tr.Events(); len(evs) != 0 {
		t.Fatalf("Events returned %d events from a capacity-0 ring", len(evs))
	}
}

func TestNegativeCapacityClampsToZero(t *testing.T) {
	tr := New(-7, CatAll)
	tr.Emit(CatSim, Event{})
	if tr.Cap() != 0 || tr.Dropped() != 1 {
		t.Fatalf("Cap = %d Dropped = %d, want 0, 1", tr.Cap(), tr.Dropped())
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Wants(CatAll) {
		t.Error("nil.Wants(CatAll) = true, want false")
	}
	tr.Emit(CatSim, Event{Cycle: 1}) // must not panic
	if tr.Len() != 0 || tr.Cap() != 0 || tr.Dropped() != 0 || tr.Emitted() != 0 {
		t.Error("nil tracer accessors returned non-zero")
	}
	if tr.Events() != nil || tr.Tracks() != nil {
		t.Error("nil tracer snapshots returned non-nil")
	}
	if tr.Mask() != 0 {
		t.Error("nil.Mask() != 0")
	}
}

func TestCategoryMaskFilters(t *testing.T) {
	tr := New(8, CatMem|CatCtl)
	tr.Emit(CatSim, Event{Cycle: 1})  // filtered
	tr.Emit(CatSync, Event{Cycle: 2}) // filtered
	tr.Emit(CatMem, Event{Cycle: 3})
	tr.Emit(CatCtl, Event{Cycle: 4})
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// Masked-out events are rejected, not dropped: Dropped counts only
	// ring overflow.
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	if got := tr.Emitted(); got != 2 {
		t.Fatalf("Emitted = %d, want 2", got)
	}
	evs := tr.Events()
	if evs[0].Cat != CatMem || evs[1].Cat != CatCtl {
		t.Errorf("Cat not stamped from the emit category: %v, %v", evs[0].Cat, evs[1].Cat)
	}
}

func TestWantsRespectsMask(t *testing.T) {
	tr := New(8, CatCtl)
	if !tr.Wants(CatCtl) {
		t.Error("Wants(CatCtl) = false with CatCtl in mask")
	}
	if tr.Wants(CatSim) {
		t.Error("Wants(CatSim) = true with CatSim not in mask")
	}
	if !tr.Wants(CatAll) {
		t.Error("Wants(CatAll) = false; any overlap should report true")
	}
}

func TestTrackInterning(t *testing.T) {
	tr := New(8, CatAll)
	a := tr.Track("bus")
	b := tr.Track("core-0")
	c := tr.Track("bus") // re-registration from another layer
	if a != c {
		t.Errorf("Track(\"bus\") twice = %d, %d; want interned", a, c)
	}
	if a != 0 || b != 1 {
		t.Errorf("track IDs = %d, %d; want dense from 0 in registration order", a, b)
	}
	got := tr.Tracks()
	if len(got) != 2 || got[0] != "bus" || got[1] != "core-0" {
		t.Errorf("Tracks() = %v, want [bus core-0]", got)
	}
}

func TestCategoryString(t *testing.T) {
	cases := []struct {
		c    Category
		want string
	}{
		{CatSim, "sim"},
		{CatMem | CatCtl, "mem|ctl"},
		{CatAll, "sim|mem|sync|ctl"},
		{0, "none"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Category(%#x).String() = %q, want %q", uint8(tc.c), got, tc.want)
		}
	}
}

func TestParseCategories(t *testing.T) {
	for in, want := range map[string]Category{
		"mem,sync,ctl": CatMem | CatSync | CatCtl,
		" ALL ":        CatAll,
		"sim,,ctl":     CatSim | CatCtl,
	} {
		if got, err := ParseCategories(in); err != nil || got != want {
			t.Errorf("ParseCategories(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"nosuchcat", "", " , ", "mem,bus"} {
		if _, err := ParseCategories(in); err == nil {
			t.Errorf("ParseCategories(%q) accepted", in)
		}
	}
}

package trace

import (
	"bytes"
	"strings"
	"testing"
)

func timelineTracer() *Tracer {
	tr := New(64, CatAll)
	bus := tr.Track("bus")
	b0 := tr.Track("dram-bank-0")
	b1 := tr.Track("dram-bank-1")
	core0 := tr.Track("core-0")

	// Bus span crossing the 100-cycle bin boundary: 60 cycles in bin 0,
	// 40 in bin 1.
	tr.Emit(CatMem, Event{Cycle: 40, Dur: 100, Track: bus, Kind: Complete, Name: "xfer"})
	// One DRAM access per bank, both inside bin 0.
	tr.Emit(CatMem, Event{Cycle: 10, Dur: 30, Track: b0, Kind: Complete, Name: "row-miss"})
	tr.Emit(CatMem, Event{Cycle: 20, Dur: 10, Track: b1, Kind: Complete, Name: "row-hit"})
	// CS hold and wait spans in bin 2.
	tr.Emit(CatSync, Event{Cycle: 210, Dur: 50, Track: core0, Kind: Complete, Name: "cs", A0: 1})
	tr.Emit(CatSync, Event{Cycle: 200, Dur: 10, Track: core0, Kind: Complete, Name: "cs-wait", A0: 1})
	// Instants never contribute occupancy, only event counts.
	tr.Emit(CatMem, Event{Cycle: 250, Track: core0, Kind: Instant, Name: "l3-miss", A0: 0})
	return tr
}

func TestComputeTimeline(t *testing.T) {
	tl := ComputeTimeline(timelineTracer(), 100)
	if tl.Interval != 100 {
		t.Fatalf("Interval = %d", tl.Interval)
	}
	if tl.DRAMBanks != 2 {
		t.Fatalf("DRAMBanks = %d, want 2", tl.DRAMBanks)
	}
	if len(tl.Bins) != 3 {
		t.Fatalf("len(Bins) = %d, want 3 (max span end 260)", len(tl.Bins))
	}

	b := tl.Bins
	if b[0].End != 100 || b[1].End != 200 || b[2].End != 300 {
		t.Fatalf("bin ends = %d,%d,%d", b[0].End, b[1].End, b[2].End)
	}
	if b[0].BusBusy != 60 || b[1].BusBusy != 40 || b[2].BusBusy != 0 {
		t.Errorf("BusBusy = %d,%d,%d; want 60,40,0 (span split across bins)",
			b[0].BusBusy, b[1].BusBusy, b[2].BusBusy)
	}
	if b[0].DRAMBusy != 40 {
		t.Errorf("bin0 DRAMBusy = %d, want 40 (30+10 summed over banks)", b[0].DRAMBusy)
	}
	if b[2].CSHeld != 50 || b[2].CSWait != 10 {
		t.Errorf("bin2 CS = held %d wait %d; want 50, 10", b[2].CSHeld, b[2].CSWait)
	}
	if b[0].Events != 3 || b[1].Events != 0 || b[2].Events != 3 {
		t.Errorf("Events = %d,%d,%d; want 3,0,3 (counted at start cycle)",
			b[0].Events, b[1].Events, b[2].Events)
	}
}

func TestComputeTimelineDefaults(t *testing.T) {
	tl := ComputeTimeline(timelineTracer(), 0)
	if tl.Interval != 10000 {
		t.Fatalf("default interval = %d, want 10000", tl.Interval)
	}
	if len(tl.Bins) != 1 {
		t.Fatalf("len(Bins) = %d, want 1", len(tl.Bins))
	}
	empty := ComputeTimeline(New(4, CatAll), 100)
	if len(empty.Bins) != 0 {
		t.Fatalf("empty tracer produced %d bins", len(empty.Bins))
	}
}

func TestWriteTimelineSurfacesDrops(t *testing.T) {
	tr := New(2, CatAll)
	tr.Track("bus")
	for i := 0; i < 5; i++ {
		tr.Emit(CatMem, Event{Cycle: uint64(i * 10), Dur: 5, Track: 0, Kind: Complete, Name: "xfer"})
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr, 100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "5 emitted, 3 dropped (ring capacity 2)") {
		t.Errorf("timeline header does not surface drop accounting:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 6 {
		t.Errorf("timeline too short:\n%s", out)
	}
}

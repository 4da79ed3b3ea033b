package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file implements the plain-text utilization-timeline exporter:
// the captured span events, folded into fixed-width intervals of
// simulated cycles, rendered as one row of per-resource utilization
// percentages per interval. It is the quick, diffable view of the
// same queueing phenomena the Chrome export shows visually — bus
// saturation (Eq 5's regime) and critical-section serialization
// (Eq 3's regime) over the run.

// Timeline is the computed per-interval utilization series.
type Timeline struct {
	// Interval is the bin width in cycles.
	Interval uint64
	// Bins holds one entry per interval, in time order.
	Bins []TimelineBin
	// DRAMBanks is the number of DRAM-bank tracks seen (the divisor
	// for aggregate DRAM utilization).
	DRAMBanks int
	// Dropped and Emitted mirror the tracer's accounting so a
	// truncated timeline is never mistaken for a quiet one.
	Dropped, Emitted uint64
}

// TimelineBin aggregates one interval.
type TimelineBin struct {
	// End is the bin's closing cycle (bin i covers [End-Interval, End)).
	End uint64
	// BusBusy, CSHeld, CSWait and DRAMBusy are occupied cycles within
	// the bin: data-bus transfer cycles, critical-section hold cycles
	// summed over threads, critical-section wait cycles summed over
	// threads, and DRAM bank-access cycles summed over banks.
	BusBusy, CSHeld, CSWait, DRAMBusy uint64
	// Events counts events whose start cycle lies in the bin.
	Events int
}

// ComputeTimeline folds the tracer's captured events into
// interval-sized bins. interval 0 defaults to 10000 cycles.
func ComputeTimeline(t *Tracer, interval uint64) Timeline {
	if interval == 0 {
		interval = 10000
	}
	tl := Timeline{Interval: interval, Dropped: t.Dropped(), Emitted: t.Emitted()}

	tracks := t.Tracks()
	isBus := make([]bool, len(tracks))
	isDRAM := make([]bool, len(tracks))
	for id, name := range tracks {
		switch {
		case name == "bus":
			isBus[id] = true
		case strings.HasPrefix(name, "dram-bank-"):
			isDRAM[id] = true
			tl.DRAMBanks++
		}
	}

	evs := t.Events()
	var maxCycle uint64
	for _, ev := range evs {
		if end := ev.Cycle + ev.Dur; end > maxCycle {
			maxCycle = end
		}
	}
	if maxCycle == 0 {
		return tl
	}
	nbins := int((maxCycle + interval - 1) / interval)
	tl.Bins = make([]TimelineBin, nbins)
	for i := range tl.Bins {
		tl.Bins[i].End = uint64(i+1) * interval
	}

	for _, ev := range evs {
		tl.Bins[int(ev.Cycle/interval)].Events++
		if ev.Kind == Complete && ev.Dur > 0 {
			addSpan(&tl, ev, interval, isBus, isDRAM)
		}
	}
	return tl
}

// addSpan distributes a Complete event's duration across the bins it
// overlaps.
func addSpan(tl *Timeline, ev Event, interval uint64, isBus, isDRAM []bool) {
	start, end := ev.Cycle, ev.Cycle+ev.Dur
	for b := start / interval; b*interval < end; b++ {
		lo, hi := b*interval, (b+1)*interval
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		bin := &tl.Bins[int(b)]
		switch {
		case int(ev.Track) < len(isBus) && isBus[ev.Track]:
			bin.BusBusy += hi - lo
		case int(ev.Track) < len(isDRAM) && isDRAM[ev.Track]:
			bin.DRAMBusy += hi - lo
		case ev.Name == "cs":
			bin.CSHeld += hi - lo
		case ev.Name == "cs-wait":
			bin.CSWait += hi - lo
		}
	}
}

// WriteTimeline renders the tracer's utilization timeline as plain
// text: a commented header (with the drop accounting) and one row per
// interval. cs% can exceed 100 when threads serialize on more than
// one lock; bus% is a true single-server utilization.
func WriteTimeline(w io.Writer, t *Tracer, interval uint64) error {
	tl := ComputeTimeline(t, interval)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fdt utilization timeline: interval=%d cycles, %d intervals\n",
		tl.Interval, len(tl.Bins))
	fmt.Fprintf(bw, "# events: %d emitted, %d dropped (ring capacity %d)\n",
		tl.Emitted, tl.Dropped, t.Cap())
	fmt.Fprintf(bw, "# bus%% = data-bus occupancy; cs%%/cswait%% = critical-section hold/wait cycles\n")
	fmt.Fprintf(bw, "# summed over threads; dram%% = bank occupancy averaged over %d banks\n", tl.DRAMBanks)
	fmt.Fprintf(bw, "#%11s %7s %7s %8s %7s %8s\n", "cycle", "bus%", "cs%", "cswait%", "dram%", "events")
	for _, b := range tl.Bins {
		iv := float64(tl.Interval)
		dram := 0.0
		if tl.DRAMBanks > 0 {
			dram = 100 * float64(b.DRAMBusy) / (iv * float64(tl.DRAMBanks))
		}
		fmt.Fprintf(bw, "%12d %7.1f %7.1f %8.1f %7.1f %8d\n",
			b.End,
			100*float64(b.BusBusy)/iv,
			100*float64(b.CSHeld)/iv,
			100*float64(b.CSWait)/iv,
			dram,
			b.Events)
	}
	return bw.Flush()
}

// Package trace implements a low-overhead, cycle-stamped tracing
// subsystem for the simulated CMP and the FDT controller. Model code
// emits Events — instants and spans stamped with the simulated cycle —
// onto named tracks (one per core, the off-chip bus, each DRAM bank,
// the controller); a fixed-capacity ring buffer bounds memory, keeping
// the most recent events and counting what it dropped.
//
// The subsystem is built to cost nothing when off: every emit site
// guards on a nil *Tracer (or a cached boolean derived from one), so a
// disabled trace is a single always-false branch on the simulator's
// hot paths. Event categories (sim kernel, memory system,
// synchronization, controller) can be masked independently, so a
// controller-only trace of a long run stays small.
//
// Two exporters turn a captured trace into artifacts: WriteChrome
// emits Chrome trace-event JSON loadable in Perfetto (chrome.go), and
// WriteTimeline renders per-interval resource-utilization percentages
// as plain text (timeline.go). Both surface the ring's drop count in
// their metadata — an overflowed trace is never silently truncated.
//
// The package sits below every model layer (it imports only the
// standard library); internal/sim, internal/mem, internal/machine,
// internal/thread and internal/core all emit into it.
package trace

import (
	"fmt"
	"strings"
)

// ControllerTrack is the reserved track name for FDT-controller
// events — the "controller-decision track" exporters and tests key on.
const ControllerTrack = "controller"

// Category classifies events by the subsystem that emitted them.
// Tracers are built with a mask of interesting categories; events in
// other categories are filtered at the emit site before touching the
// ring.
type Category uint8

const (
	// CatSim marks simulation-kernel events: event dispatch and
	// process block/wake. The highest-volume category by far.
	CatSim Category = 1 << iota
	// CatMem marks memory-system events: bus data-phase occupancy,
	// DRAM bank row hits/conflicts, L3 misses.
	CatMem
	// CatSync marks threading-runtime events: critical-section wait
	// and hold spans, barrier waits.
	CatSync
	// CatCtl marks FDT-controller events: pipeline stage spans,
	// decisions, per-interval monitor readings, retrain triggers.
	CatCtl

	// CatAll enables every category.
	CatAll = CatSim | CatMem | CatSync | CatCtl
)

// categoryNames names each category bit, in String's order.
var categoryNames = []struct {
	bit  Category
	name string
}{{CatSim, "sim"}, {CatMem, "mem"}, {CatSync, "sync"}, {CatCtl, "ctl"}}

// String names the categories in the mask ("mem|sync|ctl").
func (c Category) String() string {
	out := ""
	for _, n := range categoryNames {
		if c&n.bit == 0 {
			continue
		}
		if out != "" {
			out += "|"
		}
		out += n.name
	}
	if out == "" {
		return "none"
	}
	return out
}

// ParseCategories resolves a comma-separated list of category names
// ("mem,sync,ctl"), or "all", to a mask. Empty entries are skipped,
// but at least one category must be named.
func ParseCategories(s string) (Category, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return CatAll, nil
	}
	var mask Category
next:
	for _, part := range strings.Split(s, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		for _, n := range categoryNames {
			if name == n.name {
				mask |= n.bit
				continue next
			}
		}
		return 0, fmt.Errorf("unknown event category %q (want sim, mem, sync, ctl or all)", part)
	}
	if mask == 0 {
		return 0, fmt.Errorf("no event categories selected")
	}
	return mask, nil
}

// Kind is an event's shape.
type Kind uint8

const (
	// Instant is a point event at Cycle.
	Instant Kind = iota
	// Complete is a span [Cycle, Cycle+Dur).
	Complete
)

// TrackID identifies a named track (a Perfetto "thread"): one per
// core, the bus, each DRAM bank, the controller. IDs are dense,
// starting at 0, in registration order.
type TrackID int32

// Event is one trace record. Events are plain data — fixed-size value
// types with interned-constant strings — so emitting one allocates
// nothing.
type Event struct {
	// Cycle is the event's simulated-cycle timestamp; for Complete
	// events it is the span's start.
	Cycle uint64
	// Dur is a Complete event's length in cycles.
	Dur uint64
	// A0..A2 are numeric arguments; their meaning is per-Name (see
	// chrome.go's argNames).
	A0, A1, A2 uint64
	// Name identifies the event type ("cs", "xfer", "retrain", ...).
	Name string
	// Label carries an optional detail string: the kernel name on
	// controller events, the drift signal on retrains.
	Label string
	// Track is the track the event belongs to.
	Track TrackID
	// Kind is the event's shape.
	Kind Kind
	// Cat records the category the event was emitted under.
	Cat Category
}

// Tracer collects events into a bounded ring. The zero value is not
// usable; call New. A nil *Tracer is a valid disabled tracer: Wants
// reports false, Emit is a no-op, and accessors return zero values —
// model code holds a possibly-nil pointer and never branches on a
// separate flag.
//
// A Tracer is not safe for concurrent use; like the simulation engine
// it serves, it belongs to one run on one goroutine chain.
type Tracer struct {
	mask    Category
	ring    ring
	tracks  []string
	trackIx map[string]TrackID
}

// New returns a tracer capturing the given categories into a ring of
// capacity events. Capacity 0 disables capture entirely: every
// accepted emit is counted as dropped.
func New(capacity int, mask Category) *Tracer {
	if capacity < 0 {
		capacity = 0
	}
	return &Tracer{
		mask:    mask,
		ring:    newRing(capacity),
		trackIx: make(map[string]TrackID),
	}
}

// Wants reports whether events in cat would be captured. Emit sites
// use it (or a boolean cached from it at setup) to skip argument
// construction; it is the designated nil check.
func (t *Tracer) Wants(cat Category) bool {
	return t != nil && t.mask&cat != 0
}

// Mask reports the tracer's category mask.
func (t *Tracer) Mask() Category {
	if t == nil {
		return 0
	}
	return t.mask
}

// Track interns a track name and returns its stable ID. Repeated
// registrations of one name return the same ID, so independent layers
// (the memory system and the threading runtime both register
// "core-N") share tracks without coordination.
func (t *Tracer) Track(name string) TrackID {
	if id, ok := t.trackIx[name]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.trackIx[name] = id
	return id
}

// Tracks lists the registered track names indexed by TrackID.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	return t.tracks
}

// Emit records ev if the tracer is non-nil and cat is in the mask.
// ev.Cat is stamped from cat.
func (t *Tracer) Emit(cat Category, ev Event) {
	if t == nil || t.mask&cat == 0 {
		return
	}
	ev.Cat = cat
	t.ring.push(ev)
}

// Events returns the captured events oldest-first. The slice is a
// copy; the tracer may keep capturing.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Len reports the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.ring.len()
}

// Cap reports the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring.buf)
}

// Emitted reports the total events accepted past the category mask —
// held plus dropped.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return uint64(t.ring.len()) + t.ring.dropped
}

// Dropped reports how many accepted events the ring has discarded
// (overwritten oldest-first on overflow, or refused outright at
// capacity 0). Exporters surface this in their metadata.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.dropped
}

// Package counters implements the performance-monitoring counters the
// paper's techniques read: monotonically increasing event counters
// (cycles a bus was busy, cache misses) sampled by software with a
// read-at-entry / read-at-exit pattern, exactly like the Core2Duo
// BUS_DRDY_CLOCKS or Itanium2 BUS_DATA_CYCLE counters cited in
// Section 5.2 of the paper.
package counters

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotone event counter. Hardware counters never run
// backwards.
type Counter struct {
	v uint64
}

// Add increments the counter by n events.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one event.
func (c *Counter) Inc() { c.v++ }

// Read samples the counter.
func (c *Counter) Read() uint64 { return c.v }

// Sample is a point-in-time reading used for entry/exit deltas.
type Sample uint64

// Sample captures the current value.
func (c *Counter) Sample() Sample { return Sample(c.v) }

// DeltaSince reports the events accumulated since the sample was
// taken.
func (c *Counter) DeltaSince(s Sample) uint64 { return c.v - uint64(s) }

// Checkpoint captures every counter's current value by name — the
// counter file's contribution to a machine state summary.
func (s *Set) Checkpoint() map[string]uint64 {
	cp := make(map[string]uint64, len(s.byName))
	for n, c := range s.byName {
		cp[n] = c.v
	}
	return cp
}

// Restore sets the named counters to the checkpointed values,
// creating absent ones. Counters in the set but not in the checkpoint
// are cleared, so the set's state after Restore equals the state at
// Checkpoint. Existing Counter pointers stay valid: restoration
// mutates counters in place.
func (s *Set) Restore(cp map[string]uint64) {
	for n, c := range s.byName {
		if _, ok := cp[n]; !ok {
			c.v = 0
		}
	}
	for n, v := range cp {
		s.Counter(n).v = v
	}
}

// Set is a named collection of counters, the moral equivalent of a
// performance-monitoring unit's register file.
type Set struct {
	byName map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{byName: make(map[string]*Counter)} }

// Counter returns the counter with the given name, creating it on
// first use.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.byName[name]
	if !ok {
		c = &Counter{}
		s.byName[name] = c
	}
	return c
}

// Names lists the counters in the set in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the set as "name=value" pairs for reports.
func (s *Set) String() string {
	var b strings.Builder
	for i, n := range s.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, s.byName[n].v)
	}
	return b.String()
}

// Canonical counter names used across the machine model.
const (
	// BusBusyCycles counts cycles the off-chip data bus carried data —
	// the paper's BUS_DRDY_CLOCKS analogue, read by BAT training.
	BusBusyCycles = "bus.busy_cycles"
	// BusTransactions counts completed off-chip line transfers.
	BusTransactions = "bus.transactions"
	// L3Misses counts demand misses leaving the chip.
	L3Misses = "l3.misses"
	// L3Hits counts demand accesses served by the shared L3.
	L3Hits = "l3.hits"
	// BusWaitCycles accumulates demand-transfer queueing delay at the
	// data bus.
	BusWaitCycles = "bus.wait_cycles"
	// DRAMRowHits / DRAMRowMisses split DRAM accesses by row-buffer
	// outcome.
	DRAMRowHits   = "dram.row_hits"
	DRAMRowMisses = "dram.row_misses"
	// DRAMBankWaitCycles accumulates demand-access queueing delay at
	// DRAM banks.
	DRAMBankWaitCycles = "dram.bank_wait_cycles"
	// LoadStallCycles accumulates cycles cores spent stalled in
	// demand loads (beyond the L1 hit latency).
	LoadStallCycles = "port.load_stall_cycles"
	// StoreStallCycles accumulates cycles cores spent stalled in
	// stores (blocking stores' walks and full-store-buffer waits).
	StoreStallCycles = "port.store_stall_cycles"
	// L2Prefetches counts next-line prefetches issued (when the
	// prefetcher is enabled).
	L2Prefetches = "l2.prefetches"
	// CoherenceInvalidations counts directory-initiated invalidations.
	CoherenceInvalidations = "coherence.invalidations"
	// CoherenceWritebacks counts dirty-owner writebacks forced by the
	// directory.
	CoherenceWritebacks = "coherence.writebacks"
)

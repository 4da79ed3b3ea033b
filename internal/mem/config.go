// Package mem implements the memory-system substrate of the simulated
// CMP: private L1/L2 caches, a shared banked L3, a bidirectional ring
// interconnect, a directory-based MESI coherence protocol, a
// split-transaction off-chip bus, and a banked DRAM with row buffers.
// The default configuration reproduces Table 1 of the paper.
package mem

import "fmt"

// Config describes the machine's memory system. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Cores is the number of cores on the chip (Table 1: 32).
	Cores int
	// LineBytes is the cache-line size everywhere (Table 1: 64).
	LineBytes int

	// L1: 8KB write-through private data cache.
	L1Bytes int
	L1Ways  int
	L1Lat   uint64

	// L2: 64KB 4-way inclusive private cache.
	L2Bytes int
	L2Ways  int
	L2Lat   uint64

	// L3: 8MB 8-way shared, 8 banks, 20-cycle, LRU.
	L3Bytes         int
	L3Ways          int
	L3Banks         int
	L3Lat           uint64
	L3PortOccupancy uint64

	// RingHopLat is the per-hop latency of the bidirectional ring
	// (Table 1: 1 cycle).
	RingHopLat uint64

	// BusLat is the one-way latency of the split-transaction off-chip
	// bus (Table 1: 40 cycles).
	BusLat uint64
	// BusCyclesPerLine is the data-bus occupancy of one cache-line
	// transfer. Table 1's 64-bit bus at a 4:1 cpu/bus ratio moves 8
	// bytes per 4 cpu cycles, i.e. one 64-byte line per 32 cycles —
	// the paper's stated peak. Fig 13 halves/doubles bandwidth by
	// scaling this value.
	BusCyclesPerLine uint64

	// DRAM: 32 banks, ~200-cycle bank access, open rows modeled.
	DRAMBanks      int
	DRAMRowHitLat  uint64
	DRAMRowMissLat uint64
	DRAMRowBytes   int

	// StoreBufferEntries bounds the outstanding posted (streaming)
	// stores per core: a streaming store retires into the store
	// buffer at L1 latency, and the core stalls only when the buffer
	// is full.
	StoreBufferEntries int

	// PrefetchNextLine enables a simple next-line L2 prefetcher: a
	// demand miss also fetches the following line in the background.
	// The paper's machine has no prefetcher (the default); the knob
	// exists for machine-variation experiments — prefetching changes
	// the per-thread latency/bandwidth balance BAT measures.
	PrefetchNextLine bool

	// ModelCoherence disables the MESI directory when false (an
	// ablation knob; the default machine models it).
	ModelCoherence bool
	// ModelRowBuffer disables open-row tracking when false, making
	// every DRAM access pay the row-miss latency (ablation knob).
	ModelRowBuffer bool
}

// DefaultConfig returns the Table-1 machine.
func DefaultConfig() Config {
	return Config{
		Cores:     32,
		LineBytes: 64,

		L1Bytes: 8 << 10,
		L1Ways:  2,
		L1Lat:   1,

		L2Bytes: 64 << 10,
		L2Ways:  4,
		L2Lat:   6,

		L3Bytes:         8 << 20,
		L3Ways:          8,
		L3Banks:         8,
		L3Lat:           20,
		L3PortOccupancy: 2,

		RingHopLat: 1,

		BusLat:           40,
		BusCyclesPerLine: 32,

		// Bank latencies are calibrated so the end-to-end demand-miss
		// latency (L1+L2+ring+L3+bus command+bank+transfer+ring)
		// lands at Table 1's "memory is 200 cycles away" — about 215
		// cycles load-to-use, matching the paper's observation that
		// ED "incurs a miss every 225 cycles".
		DRAMBanks:      32,
		DRAMRowHitLat:  50,
		DRAMRowMissLat: 100,
		DRAMRowBytes:   4 << 10,

		StoreBufferEntries: 8,

		ModelCoherence: true,
		ModelRowBuffer: true,
	}
}

// Validate reports configuration errors (non-power-of-two geometries,
// impossible bank counts) before they surface as subtle mis-indexing.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("mem: Cores = %d, want > 0", c.Cores)
	case c.Cores > 64:
		return fmt.Errorf("mem: directory sharer bitmask supports at most 64 cores, got %d", c.Cores)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: LineBytes = %d, want power of two", c.LineBytes)
	case c.L1Bytes < c.LineBytes*c.L1Ways || c.L1Ways <= 0:
		return fmt.Errorf("mem: L1 geometry %dB/%d-way invalid", c.L1Bytes, c.L1Ways)
	case c.L2Bytes < c.LineBytes*c.L2Ways || c.L2Ways <= 0:
		return fmt.Errorf("mem: L2 geometry %dB/%d-way invalid", c.L2Bytes, c.L2Ways)
	case c.L3Bytes < c.LineBytes*c.L3Ways*c.L3Banks || c.L3Ways <= 0:
		return fmt.Errorf("mem: L3 geometry %dB/%d-way/%d-bank invalid", c.L3Bytes, c.L3Ways, c.L3Banks)
	case c.L3Banks <= 0 || c.L3Banks&(c.L3Banks-1) != 0:
		return fmt.Errorf("mem: L3Banks = %d, want power of two", c.L3Banks)
	case c.DRAMBanks <= 0:
		return fmt.Errorf("mem: DRAMBanks = %d, want > 0", c.DRAMBanks)
	case c.DRAMRowBytes < c.LineBytes:
		return fmt.Errorf("mem: DRAMRowBytes = %d, want >= line size", c.DRAMRowBytes)
	case c.DRAMRowBytes&(c.DRAMRowBytes-1) != 0:
		// The row of an address is then a shift of it (DRAM.bankAndRow).
		return fmt.Errorf("mem: DRAMRowBytes = %d, want power of two", c.DRAMRowBytes)
	case c.BusCyclesPerLine == 0:
		return fmt.Errorf("mem: BusCyclesPerLine = 0")
	case c.StoreBufferEntries <= 0:
		return fmt.Errorf("mem: StoreBufferEntries = %d, want > 0", c.StoreBufferEntries)
	case c.DRAMBanks&(c.DRAMBanks-1) != 0:
		return fmt.Errorf("mem: DRAMBanks = %d, want power of two", c.DRAMBanks)
	case c.Cores%c.L3Banks != 0:
		return fmt.Errorf("mem: Cores (%d) must be a multiple of L3Banks (%d) for ring placement", c.Cores, c.L3Banks)
	}
	return nil
}

// ScaleBandwidth returns a copy of the config with off-chip bandwidth
// multiplied by factor (Fig 13's 0.5x and 2x machines). Factor must be
// positive.
func (c Config) ScaleBandwidth(factor float64) Config {
	if factor <= 0 {
		panic("mem: bandwidth factor must be positive")
	}
	out := c
	scaled := float64(c.BusCyclesPerLine) / factor
	if scaled < 1 {
		scaled = 1
	}
	out.BusCyclesPerLine = uint64(scaled + 0.5)
	return out
}

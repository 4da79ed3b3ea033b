package mem

import (
	"testing"

	"fdt/internal/counters"
	"fdt/internal/sim"
)

// testSystem builds a default-config system plus an engine.
func testSystem(t *testing.T) (*System, *sim.Engine, *counters.Set) {
	t.Helper()
	ctrs := counters.NewSet()
	s, err := NewSystem(DefaultConfig(), ctrs)
	if err != nil {
		t.Fatal(err)
	}
	return s, sim.NewEngine(), ctrs
}

// run executes body as a single simulated process and returns total cycles.
func run(e *sim.Engine, body func(p *sim.Proc)) uint64 {
	e.Spawn("t", body)
	e.Run()
	return e.Now()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no cores":            func(c *Config) { c.Cores = 0 },
		"65 cores":            func(c *Config) { c.Cores, c.L3Banks = 65, 1 },
		"line 48B":            func(c *Config) { c.LineBytes = 48 },
		"line 0B":             func(c *Config) { c.LineBytes = 0 },
		"L1 smaller than set": func(c *Config) { c.L1Bytes = 64 },
		"L1 0 ways":           func(c *Config) { c.L1Ways = 0 },
		"L2 0 ways":           func(c *Config) { c.L2Ways = 0 },
		"L3 below banks":      func(c *Config) { c.L3Bytes = 2 << 10 },
		"L3 0 ways":           func(c *Config) { c.L3Ways = 0 },
		"3 L3 banks":          func(c *Config) { c.L3Banks = 3 },
		"0 L3 banks":          func(c *Config) { c.L3Banks = 0 },
		"0 DRAM banks":        func(c *Config) { c.DRAMBanks = 0 },
		"24 DRAM banks":       func(c *Config) { c.DRAMBanks = 24 },
		"row below line":      func(c *Config) { c.DRAMRowBytes = 32 },
		"row 6KB":             func(c *Config) { c.DRAMRowBytes = 6 << 10 },
		"free bus":            func(c *Config) { c.BusCyclesPerLine = 0 },
		"no store buffer":     func(c *Config) { c.StoreBufferEntries = 0 },
		"cores not per bank":  func(c *Config) { c.Cores = 12 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAllocBound(t *testing.T) {
	s, _, _ := testSystem(t)
	line := uint64(s.Cfg.LineBytes)
	base := s.Alloc(0)
	// The largest region whose next-line prefetch target is still below
	// MaxLines.
	last := int((MaxLines-1)*line - base)
	if got := s.Alloc(last); got != base {
		t.Fatalf("Alloc(%d) = %#x, want %#x", last, got, base)
	}
	for name, size := range map[string]int{"one more byte": 1, "negative": -64} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d) past the tag range did not panic", size)
				}
			}()
			s.Alloc(size)
		})
	}
}

func TestScaleBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.ScaleBandwidth(2).BusCyclesPerLine; got != 16 {
		t.Errorf("2x bandwidth: cycles/line = %d, want 16", got)
	}
	if got := cfg.ScaleBandwidth(0.5).BusCyclesPerLine; got != 64 {
		t.Errorf("0.5x bandwidth: cycles/line = %d, want 64", got)
	}
}

func TestLoadHitCostsL1Latency(t *testing.T) {
	s, e, _ := testSystem(t)
	addr := s.Alloc(64)
	var coldDone, hot uint64
	run(e, func(p *sim.Proc) {
		s.Port(0).Load(p, addr) // cold miss
		coldDone = p.Now()
		s.Port(0).Load(p, addr) // L1 hit
		hot = p.Now() - coldDone
	})
	if hot != s.Cfg.L1Lat {
		t.Errorf("L1 hit cost %d, want %d", hot, s.Cfg.L1Lat)
	}
	if coldDone < s.Cfg.BusLat+s.Cfg.DRAMRowMissLat+s.Cfg.BusCyclesPerLine {
		t.Errorf("cold miss cost %d, implausibly below off-chip minimum", coldDone)
	}
}

func TestColdMissTouchesAllLevels(t *testing.T) {
	s, e, ctrs := testSystem(t)
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) { s.Port(0).Load(p, addr) })
	if got := ctrs.Counter(counters.L3Misses).Read(); got != 1 {
		t.Errorf("l3 misses = %d, want 1", got)
	}
	if got := ctrs.Counter(counters.BusTransactions).Read(); got != 1 {
		t.Errorf("bus txns = %d, want 1", got)
	}
	if got := ctrs.Counter(counters.BusBusyCycles).Read(); got != s.Cfg.BusCyclesPerLine {
		t.Errorf("bus busy = %d, want %d", got, s.Cfg.BusCyclesPerLine)
	}
}

func TestSecondCoreHitsL3(t *testing.T) {
	s, e, ctrs := testSystem(t)
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) {
		s.Port(0).Load(p, addr)
		s.Port(1).Load(p, addr)
	})
	if got := ctrs.Counter(counters.L3Hits).Read(); got != 1 {
		t.Errorf("l3 hits = %d, want 1 (second core served on-chip)", got)
	}
	if got := ctrs.Counter(counters.BusTransactions).Read(); got != 1 {
		t.Errorf("bus txns = %d, want 1 (no second off-chip fetch)", got)
	}
}

func TestStoreThenRemoteLoadForcesWriteback(t *testing.T) {
	s, e, ctrs := testSystem(t)
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) {
		s.Port(0).Load(p, addr)
		s.Port(0).Store(p, addr) // core 0 takes M
		s.Port(1).Load(p, addr)  // must force a writeback from core 0
	})
	if got := ctrs.Counter(counters.CoherenceWritebacks).Read(); got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	line := addr / uint64(s.Cfg.LineBytes)
	if mod, _ := s.Dir.IsModified(line); mod {
		t.Error("line still modified after remote read")
	}
}

func TestStoreInvalidatesRemoteCopies(t *testing.T) {
	s, e, ctrs := testSystem(t)
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) {
		s.Port(0).Load(p, addr)
		s.Port(1).Load(p, addr)
		s.Port(2).Load(p, addr)
		s.Port(0).Store(p, addr)
	})
	if got := ctrs.Counter(counters.CoherenceInvalidations).Read(); got != 2 {
		t.Errorf("invalidations = %d, want 2", got)
	}
	line := addr / uint64(s.Cfg.LineBytes)
	if s.Port(1).L2().Contains(line) || s.Port(2).L2().Contains(line) {
		t.Error("remote L2 copies survived invalidation")
	}
}

func TestExclusiveStoreIsCheapAfterOwnership(t *testing.T) {
	s, e, _ := testSystem(t)
	addr := s.Alloc(64)
	var before, cost uint64
	run(e, func(p *sim.Proc) {
		s.Port(0).Store(p, addr) // RFO walk
		before = p.Now()
		s.Port(0).Store(p, addr) // silent: owner in M
		cost = p.Now() - before
	})
	if cost != s.Cfg.L1Lat {
		t.Errorf("owned store cost %d, want %d (write-buffer latency)", cost, s.Cfg.L1Lat)
	}
}

func TestPingPongStoresAreExpensive(t *testing.T) {
	// Alternating writers must each pay an ownership transfer.
	s, e, ctrs := testSystem(t)
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			s.Port(0).Store(p, addr)
			s.Port(1).Store(p, addr)
		}
	})
	if got := ctrs.Counter(counters.CoherenceWritebacks).Read(); got < 7 {
		t.Errorf("writebacks = %d, want >= 7 for 8 alternating stores", got)
	}
}

func TestBusSerializesDistinctCoresMisses(t *testing.T) {
	// Two cores missing simultaneously share the data bus: total bus
	// busy cycles is twice the per-line occupancy and the second
	// transfer cannot overlap the first.
	s, e, ctrs := testSystem(t)
	a := s.Alloc(64 << 10) // distinct DRAM rows
	b := a + 512<<10
	e.Spawn("c0", func(p *sim.Proc) { s.Port(0).Load(p, a) })
	e.Spawn("c1", func(p *sim.Proc) { s.Port(1).Load(p, b) })
	e.Run()
	if got := ctrs.Counter(counters.BusBusyCycles).Read(); got != 2*s.Cfg.BusCyclesPerLine {
		t.Errorf("bus busy = %d, want %d", got, 2*s.Cfg.BusCyclesPerLine)
	}
}

func TestStreamingLoadsApproachPeakBandwidth(t *testing.T) {
	// Many cores streaming disjoint data must drive bus utilization
	// toward 100%: elapsed ~ lines * cyclesPerLine.
	s, e, ctrs := testSystem(t)
	const coresUsed = 16
	const linesPer = 64
	for c := 0; c < coresUsed; c++ {
		base := s.Alloc(linesPer * 64)
		port := s.Port(c)
		e.Spawn("c", func(p *sim.Proc) {
			for l := 0; l < linesPer; l++ {
				port.Load(p, base+uint64(l*64))
			}
		})
	}
	e.Run()
	busy := ctrs.Counter(counters.BusBusyCycles).Read()
	util := float64(busy) / float64(e.Now())
	if util < 0.90 {
		t.Errorf("bus utilization = %.2f, want >= 0.90 under 16-way streaming", util)
	}
}

func TestL1WriteThroughVictimsSilent(t *testing.T) {
	// Filling far more lines than L1 capacity must not corrupt state;
	// L1 victims are clean so no writebacks originate from L1.
	s, e, _ := testSystem(t)
	base := s.Alloc(1 << 20)
	run(e, func(p *sim.Proc) {
		for l := uint64(0); l < 512; l++ { // 32KB > 8KB L1
			s.Port(0).Load(p, base+l*64)
		}
	})
	if got := s.Port(0).L1().ValidLines(); got > s.Cfg.L1Bytes/s.Cfg.LineBytes {
		t.Errorf("L1 valid lines = %d exceeds capacity", got)
	}
}

func TestL2EvictionUpdatesDirectory(t *testing.T) {
	s, e, _ := testSystem(t)
	// Stream enough distinct lines through core 0's L2 (64KB = 1024
	// lines) to force evictions, then confirm the directory no longer
	// lists core 0 for the earliest line.
	base := s.Alloc(1 << 20)
	run(e, func(p *sim.Proc) {
		for l := uint64(0); l < 4096; l++ {
			s.Port(0).Load(p, base+l*64)
		}
	})
	firstLine := base / uint64(s.Cfg.LineBytes)
	for _, h := range s.Dir.Sharers(firstLine) {
		if h == 0 {
			t.Error("directory still lists core 0 after L2 eviction")
		}
	}
}

func TestAllocReturnsLineAlignedDisjointRegions(t *testing.T) {
	s, _, _ := testSystem(t)
	a := s.Alloc(100)
	b := s.Alloc(100)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not line-aligned: %d %d", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%d b=%d", a, b)
	}
}

func TestCoherenceDisabledSkipsDirectory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModelCoherence = false
	ctrs := counters.NewSet()
	s := MustNewSystem(cfg, ctrs)
	e := sim.NewEngine()
	addr := s.Alloc(64)
	run(e, func(p *sim.Proc) {
		s.Port(0).Store(p, addr)
		s.Port(1).Load(p, addr)
	})
	if got := ctrs.Counter(counters.CoherenceWritebacks).Read(); got != 0 {
		t.Errorf("writebacks = %d with coherence off, want 0", got)
	}
	if s.Dir.Entries() != 0 {
		t.Error("directory populated with coherence off")
	}
}

func TestTooManyCoresRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 128
	cfg.L3Banks = 8
	if _, err := NewSystem(cfg, counters.NewSet()); err == nil {
		t.Error("128-core config accepted despite 64-bit sharer mask")
	}
}

// BenchmarkL2HitLoad times a lone process's loads that miss the L1 and
// hit the L2, cycling over four L1s' worth of lines: each load builds
// an access and finishes it in place, without waiting behind anyone.
func BenchmarkL2HitLoad(b *testing.B) {
	cfg := DefaultConfig()
	sys := MustNewSystem(cfg, counters.NewSet())
	e := sim.NewEngine()
	lines := uint64(4 * cfg.L1Bytes / cfg.LineBytes)
	base := sys.Alloc(int(lines) * cfg.LineBytes)
	e.Spawn("loader", func(p *sim.Proc) {
		pt := sys.Port(0)
		for l := uint64(0); l < lines; l++ {
			pt.Load(p, base+l*uint64(cfg.LineBytes))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Load(p, base+uint64(i)%lines*uint64(cfg.LineBytes))
		}
	})
	e.Run()
}

// BenchmarkL3HitLoad times transpose's access: a lone process's
// LoadStride down a column of 64 lines 16 KB apart. The lines share
// one L1 set and one L2 set, so each load misses both and goes round
// the ring to its L3 bank, where it hits: the directory records the
// read miss, and the L2 fill evicts a line of the column and records
// that too. One op is one load.
func BenchmarkL3HitLoad(b *testing.B) {
	cfg := DefaultConfig()
	ctrs := counters.NewSet()
	sys := MustNewSystem(cfg, ctrs)
	e := sim.NewEngine()
	const rows = 64
	stride := uint64(16 << 10)
	base := sys.Alloc(rows * int(stride))
	hits := ctrs.Counter(counters.L3Hits)
	e.Spawn("loader", func(p *sim.Proc) {
		pt := sys.Port(0)
		pt.LoadStride(p, base, stride, rows) // the column reaches the L3
		cold := hits.Read()
		b.ResetTimer()
		for i := 0; i < b.N; i += rows {
			pt.LoadStride(p, base, stride, min(rows, b.N-i))
		}
		b.StopTimer()
		if got := hits.Read() - cold; got != uint64(b.N) {
			b.Fatalf("%d of %d timed loads hit the L3", got, b.N)
		}
	})
	e.Run()
}

package mem

import (
	"fmt"
	"math/bits"

	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/sim"
	"fdt/internal/trace"
)

// System is the complete memory system of the simulated CMP: one
// private L1+L2 pair per core (exposed as a Port), a shared banked L3
// with its directory, the ring, the off-chip bus and DRAM. All shared
// structures are safe to touch from simulation processes because the
// sim kernel runs exactly one process at a time.
type System struct {
	Cfg  Config
	Ctrs *counters.Set
	Ring *Ring
	Bus  *Bus
	DRAM *DRAM
	Dir  *Directory

	l3         []l3Bank
	l3BankBits uint
	ports      []*Port
	// lineShift is log2 of the line size: an address's line number is
	// addr >> lineShift.
	lineShift uint

	l3Hits     *counters.Counter
	l3Misses   *counters.Counter
	loadStall  *counters.Counter
	storeStall *counters.Counter
	prefetches *counters.Counter

	// heap is the bump allocator cursor for workload address space.
	heap uint64

	// idle holds accesses no process is inside, for reuse (Port.walk).
	idle []*access

	// tr/coreTracks emit L3-miss instants onto per-core trace tracks;
	// memTrace caches the category check.
	tr         *trace.Tracer
	coreTracks []trace.TrackID
	memTrace   bool

	// ck holds the armed invariant checker (nil when disabled); the
	// subsystems cache their own enabled flags off the hot paths.
	ck *invariant.Checker
}

type l3Bank struct {
	cache Cache
	port  sim.Resource
}

// Port is one core's window into the memory system: its private L1
// and L2 plus the shared structures behind them.
type Port struct {
	sys  *System
	core int
	l1   Cache
	l2   Cache
	// sb holds completion times of outstanding posted stores (the
	// store buffer). StoreStream stalls only when it is full.
	sb []uint64
	// attr is the bus-attribution handle of the tenant currently
	// issuing through this port (nil when un-attributed). Under SMT,
	// contexts of different teams share one core's port, so the CPU
	// layer re-installs its team's handle before every access; each
	// access captures the handle at entry so a parked access keeps
	// charging its own team while another context interleaves.
	attr *TeamCtrs
}

// NewSystem builds the memory system for the given configuration.
func NewSystem(cfg Config, ctrs *counters.Set) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		Cfg:        cfg,
		Ctrs:       ctrs,
		Ring:       NewRing(cfg.Cores, cfg.L3Banks, cfg.RingHopLat),
		Bus:        NewBus(cfg, ctrs),
		DRAM:       NewDRAM(cfg, ctrs),
		Dir:        NewDirectory(ctrs),
		l3Hits:     ctrs.Counter(counters.L3Hits),
		l3Misses:   ctrs.Counter(counters.L3Misses),
		loadStall:  ctrs.Counter(counters.LoadStallCycles),
		storeStall: ctrs.Counter(counters.StoreStallCycles),
		prefetches: ctrs.Counter(counters.L2Prefetches),
		heap:       1 << 20, // leave page zero and low memory unused
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
	for 1<<s.l3BankBits < cfg.L3Banks {
		s.l3BankBits++
	}
	bankBytes := cfg.L3Bytes / cfg.L3Banks
	for b := 0; b < cfg.L3Banks; b++ {
		s.l3 = append(s.l3, l3Bank{
			cache: *NewCache(bankBytes, cfg.L3Ways, cfg.LineBytes),
		})
	}
	for c := 0; c < cfg.Cores; c++ {
		s.ports = append(s.ports, &Port{
			sys:  s,
			core: c,
			l1:   *NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
			l2:   *NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
		})
	}
	return s, nil
}

// MustNewSystem is NewSystem for known-good configurations.
func MustNewSystem(cfg Config, ctrs *counters.Set) *System {
	s, err := NewSystem(cfg, ctrs)
	if err != nil {
		panic(err)
	}
	return s
}

// SetTracer arms memory-system tracing: bus data-phase spans, DRAM
// bank-access spans, and per-core L3-miss instants. A nil tracer, or
// one without trace.CatMem, leaves every memory hot path untraced.
func (s *System) SetTracer(t *trace.Tracer) {
	if !t.Wants(trace.CatMem) {
		return
	}
	s.tr = t
	s.memTrace = true
	s.Bus.setTracer(t)
	s.DRAM.setTracer(t)
	s.coreTracks = make([]trace.TrackID, s.Cfg.Cores)
	for c := range s.coreTracks {
		s.coreTracks[c] = t.Track(fmt.Sprintf("core-%d", c))
	}
}

// SetChecker arms the memory system's invariant harness: queue audits
// on the bus and every DRAM bank, plus the continuous directory
// single-writer check. A nil or disabled checker leaves every hot path
// unchecked.
func (s *System) SetChecker(ck *invariant.Checker) {
	if !ck.Enabled() {
		return
	}
	s.ck = ck
	s.Bus.setChecker()
	s.DRAM.setChecker()
	s.Dir.setChecker(ck)
}

// FinishCheck runs the memory system's end-of-run invariants: the bus
// and DRAM conservation/queueing checks and the quiescent coherence
// walk comparing directory state against the actual cache contents.
func (s *System) FinishCheck(now uint64) {
	if s.ck == nil {
		return
	}
	s.Bus.finishCheck(s.ck, now)
	s.DRAM.finishCheck(s.ck, now)
	s.checkCoherence()
}

// checkCoherence cross-checks the directory against the caches at
// quiescence (no simulation processes in flight):
//
//   - "dir-single-writer": re-asserts the MESI rule over every entry;
//   - "dir-sharer-cached": every recorded sharer actually holds the
//     line in its private L2 (the directory never over-approximates on
//     the clean side: sharer bits are cleared on evict/invalidate);
//   - "dir-dirty-owned": a dirty private L2 line whose core is listed
//     as a sharer must be the Modified owner. A dirty copy whose core
//     is absent from the sharer mask is tolerated: a concurrent
//     write miss by another core invalidates directory state before the
//     first writer's blocking fill completes, leaving a transient stale
//     copy that the next access cleans up;
//   - "cache-l1-subset": every valid L1 line is present in the same
//     core's L2 (the hierarchy maintains strict inclusion).
func (s *System) checkCoherence() {
	if !s.Cfg.ModelCoherence {
		return
	}
	ck := s.ck
	s.Dir.ForEach(func(line uint64, sharers uint64, owner int, modified bool) {
		ck.Pass(1)
		if modified && sharers != 1<<uint(owner) {
			ck.Failf("dir-single-writer", 0,
				"quiescent: line %#x modified by core %d but sharer mask is %#b",
				line, owner, sharers)
		}
		for c := 0; sharers != 0; c++ {
			if sharers&1 != 0 {
				ck.Pass(1)
				if !s.ports[c].l2.Contains(line) {
					ck.Failf("dir-sharer-cached", 0,
						"quiescent: directory lists core %d as sharer of line %#x but its L2 does not hold it",
						c, line)
				}
			}
			sharers >>= 1
		}
	})
	for c, pt := range s.ports {
		pt.l2.ForEachLine(func(line uint64, dirty bool) {
			if !dirty {
				return
			}
			mod, owner := s.Dir.IsModified(line)
			listed := false
			for _, sc := range s.Dir.Sharers(line) {
				if sc == c {
					listed = true
					break
				}
			}
			if !listed {
				// Transient stale copy from a concurrent write miss —
				// tolerated (see doc comment above).
				return
			}
			ck.Pass(1)
			if !mod || owner != c {
				ck.Failf("dir-dirty-owned", 0,
					"quiescent: core %d holds line %#x dirty and is a sharer, but directory says modified=%v owner=%d",
					c, line, mod, owner)
			}
		})
		pt.l1.ForEachLine(func(line uint64, dirty bool) {
			ck.Pass(1)
			if !pt.l2.Contains(line) {
				ck.Failf("cache-l1-subset", 0,
					"quiescent: core %d L1 holds line %#x but its L2 does not (inclusion broken)",
					c, line)
			}
		})
	}
}

// traceL3Miss emits an L3-miss instant on the requesting core's track.
func (s *System) traceL3Miss(now uint64, core, bank int) {
	if !s.memTrace {
		return
	}
	s.tr.Emit(trace.CatMem, trace.Event{
		Cycle: now, Track: s.coreTracks[core], Kind: trace.Instant,
		Name: "l3-miss", A0: uint64(bank),
	})
}

// Port returns core's memory port.
func (s *System) Port(core int) *Port {
	return s.ports[core]
}

// Alloc reserves size bytes of simulated address space, line-aligned,
// and returns the base address. Workloads use it to lay out their
// arrays; the data itself lives in the workload's Go values. It
// panics once the region, or the line a next-line prefetch reads past
// its end, would reach MaxLines, the cache tags' address limit.
func (s *System) Alloc(size int) uint64 {
	line := uint64(s.Cfg.LineBytes)
	base := (s.heap + line - 1) / line * line
	end := base + uint64(size)
	if size < 0 || (end+line-1)/line >= MaxLines {
		panic(fmt.Sprintf("mem: Alloc(%d) at %#x would reach simulated line address %#x (limit %#x lines, %d GiB at %d-byte lines)",
			size, base, (end+line-1)/line, MaxLines, (MaxLines+1)*line>>30, line))
	}
	s.heap = end
	return base
}

// bankOf maps a line to its L3 bank with the same XOR-fold hashing
// DRAM uses, so power-of-two strides spread across banks instead of
// pounding one port. Bank shards index their sets with the global
// line address directly.
func (s *System) bankOf(line uint64) int {
	return int(BankHash(line, s.l3BankBits))
}

// SetTeamCtrs installs the bus-attribution handle for subsequent
// accesses through this port (nil disables attribution). The CPU
// layer calls it before every access; see the attr field for why.
func (pt *Port) SetTeamCtrs(tc *TeamCtrs) { pt.attr = tc }

// postPrefetch fetches the line containing addr into this core's L2
// in the background: it performs the coherence bookkeeping, consumes
// bus and DRAM bandwidth like any fetch, but never stalls the core.
// (The line is installed immediately — slightly optimistic on the
// prefetch's own timeliness, honest on the bandwidth it consumes.)
func (s *System) postPrefetch(now uint64, pt *Port, addr uint64, tc *TeamCtrs) {
	cfg := &s.Cfg
	line := addr >> s.lineShift
	if pt.l2.Contains(line) {
		return
	}
	s.prefetches.Inc()
	bank := s.bankOf(line)
	dirty := false
	if cfg.ModelCoherence {
		needWB, owner := s.Dir.ReadMiss(line, pt.core)
		if needWB {
			s.ports[owner].l2.Clean(line)
			dirty = true
		}
	}
	if s.l3[bank].cache.Lookup(line, dirty) {
		s.l3Hits.Inc()
	} else {
		s.l3Misses.Inc()
		s.traceL3Miss(now, pt.core, bank)
		s.DRAM.PostAccess(now+cfg.BusLat, addr)
		s.Bus.PostTransfer(now, tc)
		s.insertL3(now, bank, line, dirty, tc)
	}
	pt.fillL2(now, line, false, tc)
}

// drainStoreBuffer retires completed posted stores.
func (pt *Port) drainStoreBuffer(now uint64) {
	i := 0
	for i < len(pt.sb) && pt.sb[i] <= now {
		i++
	}
	if i > 0 {
		pt.sb = append(pt.sb[:0], pt.sb[i:]...)
	}
}

// postOwnership performs the shared-side work of a posted RFO without
// blocking: directory bookkeeping and invalidations take effect
// immediately (the sim kernel's run-to-completion step makes this
// atomic), the latencies accumulate into the returned completion
// time, and any off-chip fetch is posted onto the DRAM bank and data
// bus.
func (s *System) postOwnership(now uint64, pt *Port, addr, line uint64, tc *TeamCtrs) (done uint64) {
	cfg := &s.Cfg
	bank := s.bankOf(line)
	b := &s.l3[bank]
	done = now + s.Ring.CoreToBank(pt.core, bank) + cfg.L3PortOccupancy

	lineDirtyInL3 := false
	if cfg.ModelCoherence {
		var worst uint64
		worst, lineDirtyInL3 = s.takeOwnership(pt.core, line, bank)
		done += worst
	}

	done += cfg.L3Lat
	if b.cache.Lookup(line, lineDirtyInL3) {
		s.l3Hits.Inc()
		return done
	}
	s.l3Misses.Inc()
	s.traceL3Miss(now, pt.core, bank)
	// The data-bus slot is reserved work-conservingly at the current
	// cycle: a split-transaction bus backfills its schedule from the
	// pending-transaction queue, so it never idles while transactions
	// are outstanding. (Reserving at the future command-ready time
	// instead would pin unfillable holes into the reservation
	// timeline — an artifact, since real arbiters reorder around
	// unready transactions.) The store completes when both its bus
	// slot and its DRAM access have finished.
	dramDone := s.DRAM.PostAccess(now+cfg.BusLat, addr)
	busDone := s.Bus.PostTransfer(now, tc)
	if dramDone > busDone {
		busDone = dramDone
	}
	s.insertL3(now, bank, line, lineDirtyInL3, tc)
	return busDone
}

// ownsExclusive reports whether this core may silently write the line.
func (pt *Port) ownsExclusive(line uint64) bool {
	if !pt.sys.Cfg.ModelCoherence {
		return true
	}
	mod, owner := pt.sys.Dir.IsModified(line)
	return mod && owner == pt.core
}

// insertL3 places the fetched line into its bank, handling inclusion:
// an evicted victim is dropped from every private cache that holds it,
// and dirty victims are written back off-chip as posted transfers.
func (s *System) insertL3(now uint64, bank int, line uint64, dirty bool, tc *TeamCtrs) {
	victim, victimDirty, evicted := s.l3[bank].cache.Insert(line, dirty)
	if !evicted {
		return
	}
	if s.Cfg.ModelCoherence {
		for holders := s.Dir.Drop(victim); holders != 0; holders &= holders - 1 {
			op := s.ports[bits.TrailingZeros64(holders)]
			op.l1.Invalidate(victim)
			if _, wasDirty := op.l2.Invalidate(victim); wasDirty {
				victimDirty = true
			}
		}
	}
	if victimDirty {
		s.Bus.PostWriteback(now, tc)
		s.DRAM.PostWrite(now, victim<<s.lineShift)
	}
}

// fillL2 installs the line in this core's L2, handling the victim:
// directory bookkeeping plus a writeback of dirty data into the L3.
func (pt *Port) fillL2(now uint64, line uint64, dirty bool, tc *TeamCtrs) {
	victim, victimDirty, evicted := pt.l2.Insert(line, dirty)
	if !evicted {
		return
	}
	pt.l1.Invalidate(victim) // keep L1 subset of L2
	if pt.sys.Cfg.ModelCoherence {
		pt.sys.Dir.Evict(victim, pt.core)
	}
	if victimDirty {
		// Posted writeback into the inclusive L3: mark the line dirty
		// there; if inclusion was somehow broken, write it off-chip.
		s := pt.sys
		vb := s.bankOf(victim)
		if !s.l3[vb].cache.MarkDirty(victim) {
			s.Bus.PostWriteback(now, tc)
			s.DRAM.PostWrite(now, victim<<s.lineShift)
		}
	}
}

// fillL1 installs the line in the write-through L1; victims are always
// clean and vanish silently.
func (pt *Port) fillL1(line uint64) {
	pt.l1.Insert(line, false)
}

// LineBytes reports the machine's cache-line size.
func (pt *Port) LineBytes() int { return pt.sys.Cfg.LineBytes }

// L1 exposes the private L1 (test aid).
func (pt *Port) L1() *Cache { return &pt.l1 }

// L2 exposes the private L2 (test aid).
func (pt *Port) L2() *Cache { return &pt.l2 }

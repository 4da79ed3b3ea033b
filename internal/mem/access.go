package mem

import (
	"math/bits"

	"fdt/internal/sim"
)

// accessKind is the port operation an access performs on each line.
type accessKind uint8

const (
	kindLoad        accessKind = iota // Port.Load
	kindStore                         // Port.Store: a blocking read-for-ownership
	kindStoreStream                   // Port.StoreStream: a posted store
)

// accessPC is a point of the hierarchy walk where an access may stop
// and where its next Step resumes. Each names what has just happened.
type accessPC uint8

const (
	lineStart   accessPC = iota // the current line's access is about to begin
	l1Done                      // the L1 lookup latency has passed
	l1Missed                    // the private caches cannot finish the line
	l2Done                      // the L2 lookup latency has passed
	ringedOut                   // the request has reached its L3 bank
	portGranted                 // the bank port is this request's
	coherent                    // the directory's round trips are over
	l3Done                      // the L3 lookup latency has passed
	inDRAM                      // the bus command is out: the DRAM fetch runs
	onBus                       // the DRAM fetch is done: the data phase runs
	ringBack                    // the line is in the bank: the reply returns
	ringedBack                  // the reply has reached the core
	sbDrained                   // a full store buffer's oldest entry has retired
	postStore                   // a streaming store is about to be posted
)

// access is one memory operation in flight: a Load, Store or
// StoreStream of addr and of the left addresses after it, stride bytes
// apart, one after the other. It runs as a sim.Op: its state lives in this struct, not in
// a goroutine's frames, so its Steps can run on whichever goroutine
// dispatches its waits (see package sim). The walk, and each side
// effect's place between the waits, is that of a blocking access, so
// simulated time and every counter are the same.
type access struct {
	pt *Port
	tc *TeamCtrs // tenant charged for the bus traffic, captured at issue
	// addr is the current address, as issued, and line its line; left
	// more addresses follow it, stride bytes apart.
	addr, stride, left uint64
	line               uint64
	// t0 is the cycle at which the current line's stall began.
	t0   uint64
	bank int
	// owner is the Modified owner whose writeback a read miss waits
	// for, or -1.
	owner int
	kind  accessKind
	pc    accessPC
	dirty bool // the line is dirty once it reaches the L3
	dram  dramFetch
	bus   busFetch
}

// Load performs a data load of the line containing addr on behalf of
// process p running on this port's core, advancing p through every
// stall the access incurs.
//
// The L1 stage (Step's lineStart and l1Done) runs here: most loads hit
// the L1 without waiting behind another process, and they finish
// without building an access. Load holds this fast path itself, rather
// than sharing one with the stores, so that a caller the compiler does
// not inline it into pays one call, as for a Store.
func (pt *Port) Load(p *sim.Proc, addr uint64) {
	s := pt.sys
	line := addr >> s.lineShift
	switch {
	case !p.Await(p.Now() + s.Cfg.L1Lat):
		pt.walk(p, kindLoad, addr, 0, 0, l1Done)
	case !pt.l1.Lookup(line, false):
		pt.walk(p, kindLoad, addr, 0, 0, l1Missed)
	}
}

// Store performs a data store to the line containing addr. The L1 is
// write-through (Table 1), so L1 copies stay clean and the L2 holds
// the dirty data. A store to a line this core already owns exclusively
// retires through the write buffer at L1 latency; stores to shared or
// absent lines pay the read-for-ownership walk including invalidation
// round-trips.
func (pt *Port) Store(p *sim.Proc, addr uint64) { pt.store(p, kindStore, addr) }

// StoreStream performs a streaming (write-buffered) store: the store
// retires at L1 latency into the store buffer and the line fetch it
// may require proceeds in the background, consuming bus and DRAM
// bandwidth without stalling the core — unless the store buffer is
// full, in which case the core waits for the oldest entry. This is
// how write streams (convert's output image, transpose's output
// matrix) exert bus pressure in real machines.
func (pt *Port) StoreStream(p *sim.Proc, addr uint64) { pt.store(p, kindStoreStream, addr) }

// store runs a store of kind with the same fast path as Load: a store
// to a line this core owns exclusively finishes at L1 latency without
// building an access.
func (pt *Port) store(p *sim.Proc, kind accessKind, addr uint64) {
	s := pt.sys
	line := addr >> s.lineShift
	switch {
	case !p.Await(p.Now() + s.Cfg.L1Lat):
		pt.walk(p, kind, addr, 0, 0, l1Done)
	case !pt.ownedHit(line):
		pt.walk(p, kind, addr, 0, 0, l1Missed)
	}
}

// LoadStride loads the n addresses base, base+stride, ... in that
// order, as one operation: the same accesses, back to back, as n
// consecutive Loads. A column of a row-major matrix is one LoadStride.
func (pt *Port) LoadStride(p *sim.Proc, base, stride uint64, n int) {
	if n > 0 {
		pt.walk(p, kindLoad, base, stride, uint64(n-1), lineStart)
	}
}

// LoadRange loads every line of [base, base+bytes) once, in address
// order, as one operation: LoadStride over the lines.
func (pt *Port) LoadRange(p *sim.Proc, base uint64, bytes int) {
	pt.walkRange(p, kindLoad, base, bytes)
}

// StoreStreamRange is LoadRange with a StoreStream per line: a write
// stream that stalls only when the store buffer fills.
func (pt *Port) StoreStreamRange(p *sim.Proc, base uint64, bytes int) {
	pt.walkRange(p, kindStoreStream, base, bytes)
}

func (pt *Port) walkRange(p *sim.Proc, kind accessKind, base uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	shift := pt.sys.lineShift
	first, last := base>>shift, (base+uint64(bytes)-1)>>shift
	pt.walk(p, kind, first<<shift, uint64(pt.sys.Cfg.LineBytes), last-first, lineStart)
}

// walk runs an access of kind on behalf of p, charging the port's
// current tenant, over addr and the left addresses after it, stride
// bytes apart, from resume point pc of the first; pc is l1Done when its
// L1 wait is still pending. The access runs on this stack until it must
// wait behind another process; only then is it copied to one from the
// system's idle list and handed to the engine as a continuation. The
// list grows to the number of processes ever waiting inside an access
// at once, so no access allocates in steady state.
func (pt *Port) walk(p *sim.Proc, kind accessKind, addr, stride, left uint64, pc accessPC) {
	var a access // fields set one by one: a literal would be built aside and copied
	a.pt, a.tc, a.kind, a.pc, a.addr, a.stride, a.left = pt, pt.attr, kind, pc, addr, stride, left
	a.line = addr >> pt.sys.lineShift
	if pc != l1Done && a.Step(p) {
		return
	}
	s := pt.sys
	var h *access
	if n := len(s.idle); n > 0 {
		h = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		h = new(access)
	}
	*h = a
	p.Continue(h)
	s.idle = append(s.idle, h)
}

// privateHit finishes the current line in the private caches if it can:
// a load that hits the L1, or a store to a line this core already owns
// exclusively, which retires through the write buffer.
func (pt *Port) privateHit(kind accessKind, line uint64) bool {
	if kind == kindLoad {
		return pt.l1.Lookup(line, false)
	}
	return pt.ownedHit(line)
}

// ownedHit is privateHit for a store. It scans each cache's set once;
// a hit counts as a Lookup hit does, and a miss counts nothing.
func (pt *Port) ownedHit(line uint64) bool {
	keys, way := pt.l2.find(line)
	if way < 0 || !pt.ownsExclusive(line) {
		return false
	}
	keys[way] |= dirtyBit // before touch moves the way
	touch(keys, way)
	pt.l2.Hits++
	if keys, way := pt.l1.find(line); way >= 0 {
		touch(keys, way) // write-through keeps L1 clean
		pt.l1.Hits++
	}
	return true
}

// wait moves a to resume point pc and waits for cycle t, reporting
// whether p goes on at once (see sim.Proc.Await).
func (a *access) wait(p *sim.Proc, t uint64, pc accessPC) bool {
	a.pc = pc
	return p.Await(t)
}

// Step walks the hierarchy for the current address from a.pc on:
// private L1 and L2, then on a miss the shared side — ring to the L3
// bank, its port, directory actions, the L3 lookup and on a miss the
// off-chip fetch, and the ring back — then moves on to the next
// address. It returns false whenever p must give way, true once the
// last address is done; see sim.Op. Each case falls through to the next when its wait
// completes in place.
func (a *access) Step(p *sim.Proc) bool {
	pt := a.pt
	s := pt.sys
	cfg := &s.Cfg
	for {
		switch a.pc {
		case lineStart:
			a.line = a.addr >> s.lineShift
			if !a.wait(p, p.Now()+cfg.L1Lat, l1Done) {
				return false
			}
			fallthrough
		case l1Done:
			if pt.privateHit(a.kind, a.line) {
				if a.last() {
					return true
				}
				continue
			}
			fallthrough
		case l1Missed:
			a.t0 = p.Now()
			if a.kind == kindStoreStream {
				pt.drainStoreBuffer(a.t0)
				if len(pt.sb) < cfg.StoreBufferEntries {
					a.pc = postStore
				} else if !a.wait(p, pt.sb[0], sbDrained) {
					return false
				}
				continue
			}
			if !a.wait(p, a.t0+cfg.L2Lat, l2Done) {
				return false
			}
			fallthrough
		case l2Done:
			if a.kind == kindLoad && pt.l2.Lookup(a.line, false) {
				pt.fillL1(a.line)
				s.loadStall.Add(p.Now() - a.t0)
				if a.last() {
					return true
				}
				continue
			}
			a.bank = s.bankOf(a.line)
			if !a.wait(p, p.Now()+s.Ring.CoreToBank(pt.core, a.bank), ringedOut) {
				return false
			}
			fallthrough
		case ringedOut:
			start := s.l3[a.bank].port.ReserveAt(p.Now(), cfg.L3PortOccupancy)
			if start > p.Now() && !a.wait(p, start, portGranted) {
				return false
			}
			fallthrough
		case portGranted:
			a.dirty, a.owner = false, -1
			var rtt uint64
			if cfg.ModelCoherence {
				if a.kind != kindLoad {
					rtt, a.dirty = s.takeOwnership(pt.core, a.line, a.bank)
				} else if needWB, owner := s.Dir.ReadMiss(a.line, pt.core); needWB {
					a.owner = owner
					rtt = 2*s.Ring.CoreToBank(owner, a.bank) + cfg.L2Lat
				}
				// A read miss waits only for an owner's writeback.
				if (a.kind != kindLoad || a.owner >= 0) && !a.wait(p, p.Now()+rtt, coherent) {
					return false
				}
			}
			fallthrough
		case coherent:
			if a.owner >= 0 {
				s.ports[a.owner].l2.Clean(a.line)
				a.dirty = true
			}
			if !a.wait(p, p.Now()+cfg.L3Lat, l3Done) {
				return false
			}
			fallthrough
		case l3Done:
			if s.l3[a.bank].cache.Lookup(a.line, a.dirty) {
				s.l3Hits.Inc()
				a.pc = ringBack
				continue
			}
			s.l3Misses.Inc()
			s.traceL3Miss(p.Now(), pt.core, a.bank)
			if !a.wait(p, p.Now()+cfg.BusLat, inDRAM) {
				return false
			}
			fallthrough
		case inDRAM:
			if !a.dram.step(s.DRAM, p, a.addr) {
				return false
			}
			a.pc = onBus
			fallthrough
		case onBus:
			if !a.bus.step(s.Bus, p, a.tc) {
				return false
			}
			s.insertL3(p.Now(), a.bank, a.line, a.dirty, a.tc)
			fallthrough
		case ringBack:
			if !a.wait(p, p.Now()+s.Ring.CoreToBank(pt.core, a.bank), ringedBack) {
				return false
			}
			fallthrough
		case ringedBack:
			pt.fillL2(p.Now(), a.line, a.kind != kindLoad, a.tc)
			pt.fillL1(a.line)
			if a.kind == kindLoad {
				s.loadStall.Add(p.Now() - a.t0)
				if cfg.PrefetchNextLine {
					s.postPrefetch(p.Now(), pt, a.addr+uint64(cfg.LineBytes), a.tc)
				}
			} else {
				s.storeStall.Add(p.Now() - a.t0)
			}
			if a.last() {
				return true
			}
		case sbDrained:
			s.storeStall.Add(p.Now() - a.t0)
			pt.drainStoreBuffer(p.Now())
			fallthrough
		case postStore:
			done := s.postOwnership(p.Now(), pt, a.addr, a.line, a.tc)
			pt.sb = append(pt.sb, done)
			pt.fillL2(p.Now(), a.line, true, a.tc)
			pt.fillL1(a.line)
			if a.last() {
				return true
			}
		}
	}
}

// last reports whether the address just done was the access's last;
// if not, it moves a on to the next one.
func (a *access) last() bool {
	if a.left == 0 {
		return true
	}
	a.left--
	a.addr += a.stride
	a.pc = lineStart
	return false
}

// takeOwnership performs the directory side of a write miss by core on
// line, whose home is bank: every other sharer's copy is invalidated,
// and a Modified owner's data is written back. It returns the worst
// round trip those messages take and whether the line reaches the L3
// dirty.
func (s *System) takeOwnership(core int, line uint64, bank int) (worst uint64, dirty bool) {
	invalidate, needWB, owner := s.Dir.WriteMiss(line, core)
	for ; invalidate != 0; invalidate &= invalidate - 1 {
		c := bits.TrailingZeros64(invalidate)
		if d := 2 * s.Ring.CoreToBank(c, bank); d > worst {
			worst = d
		}
		op := s.ports[c]
		op.l1.Invalidate(line)
		if _, wasDirty := op.l2.Invalidate(line); wasDirty {
			dirty = true
		}
	}
	if needWB {
		if d := 2*s.Ring.CoreToBank(owner, bank) + s.Cfg.L2Lat; d > worst {
			worst = d
		}
		dirty = true
	}
	return worst, dirty
}

package mem

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/sim"
	"fdt/internal/trace"
)

// DRAM models the Table-1 main memory: 32 banks, roughly 200-cycle
// bank access, with open rows (row buffers) and bank conflicts.
// Lines are interleaved across banks with an XOR-folded hash (the
// standard bank-hashing scheme real memory controllers use), so both
// sequential streams and power-of-two strides spread across banks and
// extract bank-level parallelism; the row buffer tracks the 4KB row
// most recently touched in each bank, giving streams row hits and
// conflicting access patterns the row-miss penalty.
type DRAM struct {
	banks    []*dramBank
	bankBits uint
	lineSz   uint64
	linesRow uint64
	hitLat   uint64
	missLat  uint64
	modelRow bool

	rowHits   *counters.Counter
	rowMisses *counters.Counter
	bankWait  *counters.Counter

	// tr/tracks emit one span per bank access (named by row-buffer
	// outcome) onto per-bank trace tracks; traced caches the check.
	tr     *trace.Tracer
	tracks []trace.TrackID
	traced bool

	// audits records per-bank service intervals for the invariant
	// harness; checked caches the nil test off the hot path.
	audits  []*invariant.QueueAudit
	checked bool
}

type dramBank struct {
	res     *sim.Resource
	openRow uint64
	hasOpen bool
}

// NewDRAM builds main memory from the configuration and registers its
// row-buffer counters in the set. The bank count must be a power of
// two for the XOR fold (Table 1's 32 is).
func NewDRAM(cfg Config, ctrs *counters.Set) *DRAM {
	if cfg.DRAMBanks&(cfg.DRAMBanks-1) != 0 {
		panic("mem: DRAM bank count must be a power of two")
	}
	bits := uint(0)
	for 1<<bits < cfg.DRAMBanks {
		bits++
	}
	d := &DRAM{
		banks:     make([]*dramBank, cfg.DRAMBanks),
		bankBits:  bits,
		lineSz:    uint64(cfg.LineBytes),
		linesRow:  uint64(cfg.DRAMRowBytes / cfg.LineBytes),
		hitLat:    cfg.DRAMRowHitLat,
		missLat:   cfg.DRAMRowMissLat,
		modelRow:  cfg.ModelRowBuffer,
		rowHits:   ctrs.Counter(counters.DRAMRowHits),
		rowMisses: ctrs.Counter(counters.DRAMRowMisses),
		bankWait:  ctrs.Counter(counters.DRAMBankWaitCycles),
	}
	for i := range d.banks {
		d.banks[i] = &dramBank{res: sim.NewResource("dram-bank")}
	}
	return d
}

// setTracer arms per-bank tracing (called via System.SetTracer).
func (d *DRAM) setTracer(t *trace.Tracer) {
	if !t.Wants(trace.CatMem) {
		return
	}
	d.tr = t
	d.tracks = make([]trace.TrackID, len(d.banks))
	for i := range d.banks {
		d.tracks[i] = t.Track(fmt.Sprintf("dram-bank-%d", i))
	}
	d.traced = true
}

// setChecker arms per-bank invariant audits (called via
// System.SetChecker).
func (d *DRAM) setChecker() {
	d.audits = make([]*invariant.QueueAudit, len(d.banks))
	for i := range d.audits {
		d.audits[i] = invariant.NewQueueAudit(fmt.Sprintf("dram-bank-%d", i))
	}
	d.checked = true
}

// finishCheck runs the DRAM invariants: each bank's queue audit is
// compared against its sim.Resource's own busy accounting (two
// independent bookkeepers of the same schedule), the row-buffer
// counters must partition the accesses, and the bank-wait counter must
// equal the observed queueing delay.
func (d *DRAM) finishCheck(ck *invariant.Checker, now uint64) {
	if !d.checked {
		return
	}
	var accesses, waits uint64
	for i, b := range d.banks {
		d.audits[i].Check(ck, now, b.res.BusyCycles())
		accesses += d.audits[i].Count()
		waits += d.audits[i].WaitSum()
	}
	ck.Pass(1)
	if hits, misses := d.rowHits.Read(), d.rowMisses.Read(); hits+misses != accesses {
		ck.Failf("dram-access-accounting", now,
			"row hits %d + row misses %d = %d != %d bank accesses", hits, misses, hits+misses, accesses)
	}
	ck.Pass(1)
	if got := d.bankWait.Read(); got != waits {
		ck.Failf("dram-wait-audit", now,
			"accounted bank-wait cycles %d != observed queueing delay %d", got, waits)
	}
}

// traceAccess emits one bank-occupancy span, named by row outcome.
func (d *DRAM) traceAccess(bank int, start, lat uint64, hit bool) {
	name := "row-miss"
	if hit {
		name = "row-hit"
	}
	d.tr.Emit(trace.CatMem, trace.Event{
		Cycle: start, Dur: lat, Track: d.tracks[bank], Kind: trace.Complete, Name: name,
	})
}

// bankAndRow maps a byte address to its bank and row. The bank is an
// XOR fold of the line address (bank hashing); the row is the 4KB
// region the line belongs to. Tracking the global row per bank is the
// usual simulator simplification: it preserves the behaviour that
// matters — streams get row hits, conflicting patterns get the
// row-miss penalty.
func (d *DRAM) bankAndRow(addr uint64) (int, uint64) {
	line := addr / d.lineSz
	row := line / d.linesRow
	return int(BankHash(line, d.bankBits)), row
}

// BankHash XOR-folds a line address down to bankBits bits. Exported
// so tests and the L3 bank mapping share one hashing definition.
func BankHash(line uint64, bankBits uint) uint64 {
	h := line ^ line>>bankBits ^ line>>(2*bankBits) ^ line>>(3*bankBits)
	return h & (1<<bankBits - 1)
}

// dramFetch is a demand access to one DRAM bank in flight, the middle
// of an off-chip fetch: the bank's queue, then its row-hit or row-miss
// latency, with the row left open. It is a stage of an access's
// sim.Op, so it keeps its state between waits.
type dramFetch struct {
	stage          uint8
	hit            bool
	bank           int
	t0, start, lat uint64
}

// step runs the fetch of addr on behalf of p from where it stopped,
// waiting through p.Await. It reports false when p must give way (the
// fetch resumes from there on its next call), true once the access is
// complete: the caller was held for queueing plus access time.
func (f *dramFetch) step(d *DRAM, p *sim.Proc, addr uint64) bool {
	switch f.stage {
	case 0:
		bank, row := d.bankAndRow(addr)
		b := d.banks[bank]
		f.bank, f.lat = bank, d.missLat
		f.hit = d.modelRow && b.hasOpen && b.openRow == row
		if f.hit {
			f.lat = d.hitLat
			d.rowHits.Inc()
		} else {
			d.rowMisses.Inc()
		}
		b.hasOpen, b.openRow = d.modelRow, row
		f.t0 = p.Now()
		f.start = b.res.ReserveAt(f.t0, f.lat)
		f.stage = 1
		if f.start > f.t0 && !p.Await(f.start) {
			return false
		}
		fallthrough
	case 1:
		d.bankWait.Add(f.start - f.t0)
		f.stage = 2
		if !p.Await(f.start + f.lat) {
			return false
		}
	}
	f.stage = 0
	if d.traced {
		d.traceAccess(f.bank, f.start, f.lat, f.hit)
	}
	if d.checked {
		d.audits[f.bank].Record(f.t0, f.start, f.start+f.lat, false)
	}
	return true
}

// PostAccess performs a posted (non-blocking) access starting no
// earlier than `earliest` and returns its completion cycle. Used for
// writebacks and store-buffer fills, which occupy the bank without
// stalling a core.
func (d *DRAM) PostAccess(earliest, addr uint64) (done uint64) {
	bank, row := d.bankAndRow(addr)
	b := d.banks[bank]
	lat := d.missLat
	hit := d.modelRow && b.hasOpen && b.openRow == row
	if hit {
		lat = d.hitLat
		d.rowHits.Inc()
	} else {
		d.rowMisses.Inc()
	}
	b.hasOpen, b.openRow = d.modelRow, row
	start := b.res.ReserveAt(earliest, lat)
	if d.traced {
		d.traceAccess(bank, start, lat, hit)
	}
	if d.checked {
		d.audits[bank].Record(earliest, start, start+lat, true)
	}
	return start + lat
}

// PostWrite is PostAccess for callers that do not need the
// completion time.
func (d *DRAM) PostWrite(now, addr uint64) {
	d.PostAccess(now, addr)
}

// Banks reports the number of banks.
func (d *DRAM) Banks() int { return len(d.banks) }

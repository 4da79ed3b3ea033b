package mem

import (
	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/sim"
	"fdt/internal/trace"
)

// Bus models the split-transaction, pipelined off-chip bus of Table 1.
// The address/command phase costs a fixed latency and is assumed
// pipelined (it never becomes the bottleneck); the data phase occupies
// the shared data bus for BusCyclesPerLine cycles per line, which
// caps peak bandwidth at one line per BusCyclesPerLine cycles — the
// quantity the paper's BAT saturates.
type Bus struct {
	data *sim.Resource
	lat  uint64
	perL uint64

	busy *counters.Counter
	txns *counters.Counter
	wait *counters.Counter

	// tr/track emit one span per data-phase occupancy onto the "bus"
	// trace track; traced caches the category check.
	tr     *trace.Tracer
	track  trace.TrackID
	traced bool

	// audit records per-transfer service intervals for the invariant
	// harness; checked caches the nil test off the hot path.
	audit   *invariant.QueueAudit
	checked bool

	// faultAccountingSkew and faultOccupancySkew are mutation-test
	// hooks (see DESIGN.md Section 10): the first under-accounts every
	// transfer's busy cycles without changing its occupancy, the second
	// stretches the occupancy without changing the accounting. Both are
	// deliberate bookkeeping bugs that the queueing invariants must
	// catch; they are never set outside tests. faultTeamAttrSkew
	// likewise under-charges every transfer's per-team attribution
	// without touching the global counter, which "team-bus-partition"
	// must catch.
	faultAccountingSkew uint64
	faultOccupancySkew  uint64
	faultTeamAttrSkew   uint64
}

// NewBus builds the off-chip bus and registers its counters
// (counters.BusBusyCycles, counters.BusTransactions) in the set.
func NewBus(cfg Config, ctrs *counters.Set) *Bus {
	return &Bus{
		data: sim.NewResource("offchip-bus"),
		lat:  cfg.BusLat,
		perL: cfg.BusCyclesPerLine,
		busy: ctrs.Counter(counters.BusBusyCycles),
		txns: ctrs.Counter(counters.BusTransactions),
		wait: ctrs.Counter(counters.BusWaitCycles),
	}
}

// setTracer arms bus tracing (called via System.SetTracer).
func (b *Bus) setTracer(t *trace.Tracer) {
	if !t.Wants(trace.CatMem) {
		return
	}
	b.tr = t
	b.track = t.Track("bus")
	b.traced = true
}

// setChecker arms the bus's invariant audit (called via
// System.SetChecker).
func (b *Bus) setChecker() {
	b.audit = invariant.NewQueueAudit("bus")
	b.checked = true
}

// finishCheck runs the bus's end-of-run invariants: the conservation
// identity every transfer maintains — busy cycles == transactions x
// cycles-per-line — plus the queue audit against the recorded
// schedule.
func (b *Bus) finishCheck(ck *invariant.Checker, now uint64) {
	if !b.checked {
		return
	}
	busy, txns := b.busy.Read(), b.txns.Read()
	ck.Pass(1)
	if busy != txns*b.perL {
		ck.Failf("bus-conservation", now,
			"busy cycles %d != %d transfers x %d cycles/line = %d",
			busy, txns, b.perL, txns*b.perL)
	}
	ck.Pass(1)
	if got := b.wait.Read(); got != b.audit.WaitSum() {
		ck.Failf("bus-wait-audit", now,
			"accounted wait cycles %d != observed queueing delay %d", got, b.audit.WaitSum())
	}
	b.audit.Check(ck, now, busy)
}

// FaultAccountingSkew arms a mutation-test hook: every transfer
// accounts skew fewer busy cycles than it occupies. The
// "bus-conservation" invariant must catch it.
func (b *Bus) FaultAccountingSkew(skew uint64) { b.faultAccountingSkew = skew }

// FaultOccupancySkew arms a mutation-test hook: every transfer
// occupies the bus for extra cycles beyond what it accounts. The
// "bus-busy-audit" invariant must catch it — and, because occupancy
// shapes timing, the figure-shape suite must notice the bent curve.
func (b *Bus) FaultOccupancySkew(extra uint64) { b.faultOccupancySkew = extra }

// FaultTeamAttrSkew arms a mutation-test hook: every transfer charges
// skew fewer busy cycles to its team than to the machine-global
// counter. The "team-bus-partition" invariant must catch it.
func (b *Bus) FaultTeamAttrSkew(skew uint64) { b.faultTeamAttrSkew = skew }

// chargeTeam attributes one transfer to the requesting tenant (nil tc
// is the un-attributed legacy path).
func (b *Bus) chargeTeam(tc *TeamCtrs) {
	if tc != nil {
		tc.BusBusy.Add(b.perL - b.faultTeamAttrSkew)
		tc.BusTxns.Inc()
	}
}

// Latency reports the one-way command latency.
func (b *Bus) Latency() uint64 { return b.lat }

// CyclesPerLine reports the data-phase occupancy of one line.
func (b *Bus) CyclesPerLine() uint64 { return b.perL }

// busFetch is the data phase of one demand line transfer in flight,
// the end of an off-chip fetch: it waits for the data bus, holds it for
// the line's occupancy, and accounts the busy cycles globally and to
// the requesting tenant. It is a stage of an access's sim.Op, so it
// keeps its state between waits.
type busFetch struct {
	stage          uint8
	t0, start, occ uint64
}

// step runs the transfer for tenant tc (nil for un-attributed traffic)
// on behalf of p from where it stopped, waiting through p.Await. It
// reports false when p must give way (the transfer resumes from there
// on its next call), true once the data phase is over.
func (f *busFetch) step(b *Bus, p *sim.Proc, tc *TeamCtrs) bool {
	switch f.stage {
	case 0:
		f.t0 = p.Now()
		f.occ = b.perL + b.faultOccupancySkew
		f.start = b.data.ReserveAt(f.t0, f.occ)
		f.stage = 1
		if f.start > f.t0 && !p.Await(f.start) {
			return false
		}
		fallthrough
	case 1:
		b.wait.Add(f.start - f.t0)
		f.stage = 2
		if !p.Await(f.start + f.occ) {
			return false
		}
	}
	f.stage = 0
	b.busy.Add(b.perL - b.faultAccountingSkew)
	b.txns.Inc()
	b.chargeTeam(tc)
	if b.traced {
		b.tr.Emit(trace.CatMem, trace.Event{
			Cycle: f.start, Dur: b.perL, Track: b.track, Kind: trace.Complete, Name: "xfer",
		})
	}
	if b.checked {
		b.audit.Record(f.t0, f.start, f.start+f.occ, false)
	}
	return true
}

// PostTransfer schedules one line's data phase without blocking the
// caller, starting no earlier than `earliest`, and returns the cycle
// at which the transfer completes. Posted transfers still consume
// bandwidth, delaying later demand transfers, and are attributed to
// the posting tenant (tc, nil for un-attributed traffic).
func (b *Bus) PostTransfer(earliest uint64, tc *TeamCtrs) (done uint64) {
	occ := b.perL + b.faultOccupancySkew
	start := b.data.ReserveAt(earliest, occ)
	b.busy.Add(b.perL - b.faultAccountingSkew)
	b.txns.Inc()
	b.chargeTeam(tc)
	if b.traced {
		b.tr.Emit(trace.CatMem, trace.Event{
			Cycle: start, Dur: b.perL, Track: b.track, Kind: trace.Complete, Name: "posted-xfer",
		})
	}
	if b.checked {
		b.audit.Record(earliest, start, start+occ, true)
	}
	return start + occ
}

// PostWriteback schedules a line writeback on the data bus without
// blocking the caller: evictions are fire-and-forget from the core's
// point of view. The writeback is attributed to the tenant whose fill
// forced it.
func (b *Bus) PostWriteback(now uint64, tc *TeamCtrs) {
	b.PostTransfer(now, tc)
}

// BusyCycles reports cumulative data-bus busy cycles (the counter BAT
// samples).
func (b *Bus) BusyCycles() uint64 { return b.busy.Read() }

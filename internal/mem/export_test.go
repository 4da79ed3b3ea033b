package mem

import "fdt/internal/sim"

// StoreBufferOccupancy reports outstanding posted stores.
func (pt *Port) StoreBufferOccupancy() int { return len(pt.sb) }

// L3BankCache exposes a bank's cache shard.
func (s *System) L3BankCache(bank int) *Cache { return s.l3[bank].cache }

// dramOp runs one dramFetch as an Op of its own.
type dramOp struct {
	d    *DRAM
	addr uint64
	f    dramFetch
}

func (o *dramOp) Step(p *sim.Proc) bool { return o.f.step(o.d, p, o.addr) }

// Access performs one demand access of addr's bank on behalf of p: the
// DRAM stage of an off-chip fetch, on its own.
func (d *DRAM) Access(p *sim.Proc, addr uint64) { do(p, &dramOp{d: d, addr: addr}) }

// busOp runs one busFetch as an Op of its own.
type busOp struct {
	b  *Bus
	tc *TeamCtrs
	f  busFetch
}

func (o *busOp) Step(p *sim.Proc) bool { return o.f.step(o.b, p, o.tc) }

// TransferLine performs the data phase of one demand line transfer on
// behalf of p: the bus stage of an off-chip fetch, on its own.
func (b *Bus) TransferLine(p *sim.Proc, tc *TeamCtrs) { do(p, &busOp{b: b, tc: tc}) }

// do runs op to completion on behalf of p.
func do(p *sim.Proc, op sim.Op) {
	if !op.Step(p) {
		p.Continue(op)
	}
}

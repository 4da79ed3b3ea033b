package sim

// Do runs op to completion on behalf of p.
func (p *Proc) Do(op Op) {
	if !op.Step(p) {
		p.Continue(op)
	}
}

// Yield re-queues the process at the current cycle, letting any other
// process scheduled for this cycle run first.
func (p *Proc) Yield() { p.WaitUntil(p.eng.now) }

// Grants reports the number of reservations made so far.
func (r *Resource) Grants() uint64 { return r.grants }

// Acquire reserves the resource for occupancy cycles and blocks p
// until the reserved slot begins. It returns the cycle at which the
// slot begins; when Acquire returns, the clock equals that cycle and
// the caller owns the resource until start+occupancy.
func (r *Resource) Acquire(p *Proc, occupancy uint64) (start uint64) {
	start = r.ReserveAt(p.Now(), occupancy)
	if start > p.Now() {
		p.WaitUntil(start)
	}
	return start
}

// AcquireAndHold reserves the resource for occupancy cycles and blocks
// p until the reservation completes (start+occupancy).
func (r *Resource) AcquireAndHold(p *Proc, occupancy uint64) (start uint64) {
	start = r.Acquire(p, occupancy)
	p.WaitUntil(start + occupancy)
	return start
}

//go:build go1.24

// The handoff calls one coroutine's yield from another goroutine, which
// iter.Pull allows as of Go 1.24 (see the package comment); go.mod stays
// at go 1.22 so the cmd/fdtbench module, which pins go 1.22, still
// builds.

// Package sim implements a deterministic, process-oriented
// discrete-event simulation kernel.
//
// A simulation is a set of processes (Proc) that advance a shared
// simulated clock by waiting: WaitUntil schedules the process at an
// absolute cycle, Park suspends it until another process Wakes it.
// The engine resumes exactly one process at a time — the one with the
// smallest pending event time, FIFO among ties — so simulations are
// fully deterministic regardless of host goroutine scheduling.
//
// The kernel knows nothing about CPUs, caches or buses; those live in
// higher layers (internal/mem, internal/cpu) and are expressed purely
// in terms of WaitUntil/Park/Wake.
//
// The event queue is a timing wheel, a calendar queue (Brown, CACM
// 31(10), 1988) with one slot per cycle: each slot is the FIFO of the
// processes due at one of the next wheelSize cycles, and a two-level
// occupancy bitmap finds the next non-empty slot. So the short waits
// that dominate (cache and ring latencies) are queued and dispatched in
// O(1). Longer waits go to a far heap ordered by (t, seq). Each clock
// move takes the far events that come within the wheel's span into
// their slots before anything else is scheduled, so every event is
// dispatched in (t, seq) order: by cycle, FIFO among ties.
//
// A process that waits picks its own successor from the queue. When it
// is still the earliest it keeps running with no switch and no queue
// traffic at all: WaitUntil just moves the clock. Otherwise the process
// resumes its successor's goroutine directly, with one coroutine switch
// and no trip through Run or the goroutine scheduler.
//
// A process can also wait inside an Op, a resumable operation such as
// one memory access or a range of them. The Op's waits (Await) follow
// WaitUntil's rules exactly, but when the process is not the earliest,
// only its event is queued: the Op stops, and its goroutine goes on
// dispatching (Continue). Whichever goroutine later dispatches that
// event runs the Op's next Step itself, in place of a switch. The
// process's goroutine is resumed once, when its Op completes, and not
// at all when it completes on that goroutine. So a team of processes in
// lockstep, each inside a memory access, costs one switch per completed
// access rather than one per wait. Body code (locks, barriers,
// fork/join, compute) still waits with WaitUntil and Park on its own
// goroutine.
//
// Each process body runs as a runtime coroutine (iter.Pull). A
// coroutine is a slot that holds exactly one suspended goroutine:
// calling its next or its yield, from any goroutine, parks the caller
// in the slot and resumes the goroutine that was there. The engine
// records, for every suspended goroutine (each process's and Run's),
// the slot it sits in and whether it is blocked in that slot's next or
// its yield, and resumes it by calling the other one. This calls one
// coroutine's yield from a goroutine other than the coroutine's own,
// which iter.Pull permits on Go 1.24 without any linkname; the file
// carries a go1.24 build constraint for it. A process that exits wakes
// whichever goroutine sits in its slot, and that goroutine passes
// control on to the successor the exiting process chose.
//
// One Engine simulates one execution as a single thread of control:
// Run and the processes never run at once, and Run may be called from
// any goroutine. An Engine is not safe for concurrent use. Host-level
// parallelism belongs one layer up (internal/runner), across
// independent engines.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"

	"fdt/internal/trace"
)

// wheelSize is the span of the timing wheel in cycles: a power of two
// from 64 to 4,096, so that occSum has a bit per word of occ. Shorter
// waits (cache and ring latencies, compute between accesses) are
// queued and found in O(1); longer ones go to the far heap. At 1,024
// cycles, 0.55% of the waits of an exact sweep of the Table-2
// workloads at 2 and 8 threads are long, and 0.75% of those of their
// sampled SAT, BAT, SAT+BAT and adaptive runs.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
)

// The wheel's size is checked at compile time: a constant expression
// that goes negative does not convert to uint.
const (
	_ uint = 4096 - wheelSize
	_ uint = wheelSize - 64
	_ uint = -(wheelSize & wheelMask)
)

// never is the due cycle of an empty queue.
const never = ^uint64(0)

// Engine owns the simulated clock and the pending-event queue.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now uint64
	// wheel holds every pending event due before now+wheelSize: slot
	// t&wheelMask is the FIFO of the processes scheduled at cycle t,
	// so the slot of now is the FIFO of those runnable at the current
	// cycle. occ has a bit per non-empty slot and occSum a bit per
	// non-zero word of occ, so the next non-empty slot is two bit
	// scans away.
	wheel  [wheelSize]slot
	occ    [wheelSize / 64]uint64
	occSum uint64
	// far holds the events due at now+wheelSize or later, ordered by
	// (t, seq), where seq counts the events it has taken. Each clock
	// move takes the far events that come within the wheel's span into
	// their slots, before anything else is scheduled, so they stay
	// ahead of the events scheduled later onto the same cycles.
	far eventHeap
	seq uint64
	// dispatched counts events delivered to processes over the
	// engine's lifetime — the "simulator throughput" numerator.
	dispatched uint64
	// switches counts the coroutine switches transfer makes.
	switches uint64
	// succ is the process an Await that did not stay earliest picked to
	// run next; Continue hands off to it.
	succ  *Proc
	live  map[*Proc]struct{}
	fault *procFault
	// run is the goroutine that called Run, while another one runs.
	run thread
	// want is the goroutine an exiting process hands control to: its
	// dispatched successor, or Run's when the queue drained or the
	// body panicked. The goroutine its exit wakes passes control on.
	want *thread
	// stepHook, when non-nil, is invoked before each event dispatch,
	// on the goroutine that picked the event. Used by tests to observe
	// scheduling order.
	stepHook func(t uint64, p *Proc)
	// tracer receives kernel-level trace events (dispatches, blocked
	// spans) when simTrace is set; the cached boolean keeps the
	// disabled case a single predictable branch in the dispatch path.
	tracer   *trace.Tracer
	simTrace bool
}

// slot is the FIFO of the processes scheduled at one cycle, linked
// through Proc.link: a process has at most one pending event.
type slot struct{ head, tail *Proc }

// procFault records a panic raised inside a process body so Run can
// re-raise it on the caller's goroutine.
type procFault struct {
	proc  *Proc
	value any
}

// NewEngine returns an engine with the clock at cycle 0 and no
// processes.
func NewEngine() *Engine {
	return &Engine{live: make(map[*Proc]struct{})}
}

// Now reports the current simulated cycle. It is only meaningful while
// the engine is running or after Run returns.
func (e *Engine) Now() uint64 { return e.now }

// Live reports the number of processes that have been spawned and have
// not yet finished.
func (e *Engine) Live() int { return len(e.live) }

// Events reports the number of events the engine has dispatched so
// far — the basis for events/second throughput metrics.
func (e *Engine) Events() uint64 { return e.dispatched }

// Switches reports the number of coroutine switches the engine has
// made so far, each from a waiting goroutine to a suspended one (a
// process's, or Run's). Events dispatched to a process that keeps
// running, or to a process's Op stepped on the dispatching goroutine,
// cost none. The wake-up of the goroutine in an exiting process's slot
// is the runtime's, not a switch the engine makes, and is not counted.
func (e *Engine) Switches() uint64 { return e.switches }

// SetTracer attaches a tracer to the engine. With trace.CatSim in the
// tracer's mask the engine emits a "dispatch" instant per delivered
// event and a "blocked" span per Park/Wake pair, each on a track named
// after the process. A nil tracer (or a mask without CatSim) keeps
// the dispatch path's tracing cost at one always-false branch.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.simTrace = t.Wants(trace.CatSim)
	if e.simTrace {
		for p := range e.live {
			p.track = t.Track(p.name)
		}
	}
}

type event struct {
	t   uint64
	seq uint64
	p   *Proc
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift
// routines are hand-rolled rather than going through container/heap:
// the interface-based API boxes every pushed event into an `any`,
// which costs an allocation per scheduled event.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the Proc pointer
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
	return ev
}

// schedule queues p to run at cycle t >= now: at the tail of t's slot
// when t is within the wheel's span, in the far heap otherwise.
// Spawn-before-Run schedules (now == 0, nothing dispatched yet) queue
// in the slot of now, in spawn order.
func (e *Engine) schedule(t uint64, p *Proc) {
	if t-e.now < wheelSize {
		e.enqueue(t, p)
		return
	}
	e.seq++
	e.far.push(event{t: t, seq: e.seq, p: p})
}

// enqueue appends p to the FIFO of cycle t, which is within the
// wheel's span.
func (e *Engine) enqueue(t uint64, p *Proc) {
	i := t & wheelMask
	s := &e.wheel[i]
	if s.tail == nil {
		s.head = p
		e.occ[i>>6] |= 1 << (i & 63)
		e.occSum |= 1 << (i >> 6)
	} else {
		s.tail.link = p
	}
	s.tail = p
}

// pending reports whether an event is pending at the current cycle.
func (e *Engine) pending() bool { return e.wheel[e.now&wheelMask].head != nil }

// pop takes the first process off the FIFO of the current cycle, which
// must be pending.
func (e *Engine) pop() *Proc {
	i := e.now & wheelMask
	s := &e.wheel[i]
	p := s.head
	if s.head = p.link; s.head == nil {
		s.tail = nil
		if e.occ[i>>6] &^= 1 << (i & 63); e.occ[i>>6] == 0 {
			e.occSum &^= 1 << (i >> 6)
		}
	}
	p.link = nil
	return p
}

// due returns the cycle of the earliest pending event, or never when
// the queue is empty. Every far event is due after every wheel event.
func (e *Engine) due() uint64 {
	if e.occSum != 0 {
		return e.wheelDue()
	}
	if len(e.far) != 0 {
		return e.far[0].t
	}
	return never
}

// wheelDue returns the cycle of the earliest event in the wheel, which
// holds one: the first non-empty slot from now's on, round the wheel.
func (e *Engine) wheelDue() uint64 {
	i := e.now & wheelMask
	if m := e.occ[i>>6] >> (i & 63); m != 0 {
		return e.now + uint64(bits.TrailingZeros64(m))
	}
	// The slots after i in its word are empty: the next non-empty word
	// after i's holds the first slot, or, past the wheel's end, the
	// first non-empty word does (i's own, below i, comes last).
	w := e.occSum &^ (2<<(i>>6) - 1)
	if w == 0 {
		w = e.occSum
	}
	wi := uint64(bits.TrailingZeros64(w))
	j := wi<<6 | uint64(bits.TrailingZeros64(e.occ[wi]))
	return e.now + (j-i)&wheelMask
}

// moveTo moves the clock forward to t, which is at most the due cycle,
// and takes the far events that come within the wheel's span into it.
func (e *Engine) moveTo(t uint64) {
	e.now = t
	if len(e.far) != 0 && e.far[0].t-t < wheelSize {
		e.pull()
	}
}

// pull moves every far event due before now+wheelSize into its slot.
// The heap yields them in (t, seq) order, and their slots are empty:
// any event scheduled to one of these cycles before this clock move
// was itself far.
func (e *Engine) pull() {
	for len(e.far) != 0 && e.far[0].t-e.now < wheelSize {
		ev := e.far.pop()
		e.enqueue(ev.t, ev.p)
	}
}

// next pops the earliest pending process, moving the clock to its
// cycle. It returns nil when no events remain.
func (e *Engine) next() *Proc {
	if !e.pending() {
		t := e.due()
		if t == never {
			return nil
		}
		e.moveTo(t)
	}
	return e.pop()
}

// thread is one goroutine the engine hands control between: a
// process's body or Run's caller. While the goroutine is suspended,
// slot is the process whose coroutine holds it and inNext tells
// whether it is blocked in that coroutine's next (resume) or in its
// yield (or has not started); the goroutine is resumed through the
// other one. slot is nil while the goroutine runs.
type thread struct {
	slot   *Proc
	inNext bool
	// released is set by an aborted Run before it stops the process;
	// from then on the process only unwinds.
	released bool
}

// transfer suspends the running goroutine, recorded by from, and
// resumes the one recorded by to. It returns once from runs again:
// either a handoff resumed it (and cleared from.slot), or the process
// owning the slot it sat in exited and chose from as its successor.
// When that process chose another successor, from passes control on;
// when an aborted Run stopped the slot or released from, from unwinds.
func (e *Engine) transfer(from, to *thread) {
	for {
		s := to.slot
		to.slot = nil
		from.slot, from.inNext = s, !to.inNext
		e.switches++
		if to.inNext {
			s.yield(struct{}{})
		} else {
			s.resume()
		}
		if from.slot == nil {
			return
		}
		from.slot = nil
		if from.released {
			panic(releasedPanic{})
		}
		if to, e.want = e.want, nil; to == from {
			return
		}
	}
}

// successor dispatches q and returns the goroutine to resume: q's, or
// Run's when q is nil (the queue drained). When q is inside an Op, the
// Op's Step runs here first (see steps).
func (e *Engine) successor(q *Proc) *thread {
	if q == nil {
		return &e.run
	}
	e.dispatch(q)
	if q.op == nil {
		return &q.thread
	}
	return e.steps(q)
}

// steps runs the Op of q, whose event was just dispatched, and goes on
// dispatching the events after it until one needs a goroutine: an event
// of a process waiting in body code, or the one that completes a
// process's Op. Every other event belongs to an Op that waits again,
// and its Step runs here, on the dispatching goroutine, which may be
// another process's or Run's. A panic in a Step is recorded as its
// process's, as if that process's own goroutine had raised it, and
// control goes back to Run. steps returns the goroutine to resume.
func (e *Engine) steps(q *Proc) (to *thread) {
	defer func() {
		if r := recover(); r != nil {
			e.fault = &procFault{proc: q, value: r}
			to = &e.run
		}
	}()
	for !q.op.Step(q) {
		// q is queued again, so the queue holds a successor.
		q = e.succ
		e.dispatch(q)
		if q.op == nil {
			return &q.thread
		}
	}
	q.op = nil
	return &q.thread
}

// Proc is a simulated process: a coroutine that cooperates with the
// engine through WaitUntil, Advance, Park and Wake. All Proc methods
// must be called from the process's own body function, except Wake,
// which is called by whichever process is currently running.
type Proc struct {
	thread
	eng  *Engine
	name string
	// resume, yield and stop are the process's coroutine slot, from
	// iter.Pull: resume and yield switch whichever goroutine calls them
	// with the one the slot holds (see thread), and stop releases the
	// slot after an aborted Run. yield is set once the body starts.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	parked bool
	// link is the next process in the wheel slot p's event is queued
	// in.
	link *Proc
	// op is the Op the process is inside while its event is queued
	// behind another process's; nil while the process waits in body
	// code or runs.
	op Op
	// track and parkedAt support kernel-level tracing; both are
	// maintained only while the engine's simTrace flag is set.
	track    trace.TrackID
	parkedAt uint64
}

// releasedPanic unwinds a process released by an aborted Run, so its
// deferred calls run; exit swallows it.
type releasedPanic struct{}

// Name reports the diagnostic name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated cycle.
func (p *Proc) Now() uint64 { return p.eng.now }

// Spawn creates a process that will first run at the current simulated
// time. The body runs as a coroutine, one process at a time, so body
// code may freely touch shared model state without host-level locking.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
	p.slot = p // the slot holds the body's goroutine, not yet started
	if e.simTrace {
		p.track = e.tracer.Track(name)
	}
	e.live[p] = struct{}{}
	e.schedule(e.now, p)
	return p
}

// dispatch does the accounting for delivering the next event to p, on
// the goroutine that picked p just before p runs. It is small enough to
// inline into every dispatching path; the step hook and tracing, off
// in untraced runs, are in observe.
func (e *Engine) dispatch(p *Proc) {
	e.dispatched++
	if e.stepHook != nil || e.simTrace {
		e.observe(p)
	}
}

// observe calls the step hook and emits the dispatch instant.
func (e *Engine) observe(p *Proc) {
	if e.stepHook != nil {
		e.stepHook(e.now, p)
	}
	if e.simTrace {
		e.tracer.Emit(trace.CatSim, trace.Event{
			Cycle: e.now, Track: p.track, Kind: trace.Instant, Name: "dispatch",
		})
	}
}

// handoff gives up the processor to q, or to Run when q is nil, and
// returns when p is dispatched again (or, inside Continue, when p's Op
// has completed). When that happens during the successor loop on p's
// own goroutine, no switch is made at all.
func (p *Proc) handoff(q *Proc) {
	e := p.eng
	if to := e.successor(q); to != &p.thread {
		e.transfer(&p.thread, to)
	}
}

// checkLive panics with the release sentinel if an aborted Run has
// released the process: a body that recovered the sentinel may not
// touch the queue again.
func (p *Proc) checkLive() {
	if p.released {
		panic(releasedPanic{})
	}
}

// exit ends the process. A normal return dispatches the successor; a
// panic is recorded for Run, which re-raises it on the caller's
// goroutine with the process name instead of crashing the host
// process. Either way the goroutine the exit wakes hands control to
// e.want. A process released by an aborted Run has finished unwinding,
// and neither dispatches nor touches the queue.
func (p *Proc) exit() {
	e := p.eng
	r := recover()
	delete(e.live, p)
	switch {
	case p.released:
	case r != nil:
		e.fault = &procFault{proc: p, value: r}
		e.want = &e.run
	default:
		e.want = e.successor(e.next())
	}
}

// WaitUntil blocks the process until the simulated clock reaches t.
// Waiting for a time in the past (t <= now) re-queues the process at
// the current time, which still yields to any already-pending events
// at this cycle.
func (p *Proc) WaitUntil(t uint64) { p.wait(t, true) }

// Await is the wait an Op's Step makes: it schedules p at cycle t
// exactly as WaitUntil does, but does not block. It reports whether p
// is still the earliest process, in which case the clock is at t and
// the Step goes on. Otherwise p's event is queued, and the Step must
// return false at once, touching no model state: the engine runs the
// Op's next Step when that event is dispatched.
func (p *Proc) Await(t uint64) bool { return p.wait(t, false) }

// wait is WaitUntil with block set, Await without: it schedules p at
// cycle t and reports true when p stays the earliest process. Otherwise
// it picks p's successor and, with block, hands off to it and returns
// once p runs again; without, it leaves the successor in e.succ and
// returns false.
//
// Only the dispatch order matters, so the queue is touched no more than
// that order needs. With events still pending at this cycle, p queues
// behind them. Otherwise, if nothing is pending at or before t, p stays
// the earliest and keeps running at t, and its event is never queued.
func (p *Proc) wait(t uint64, block bool) bool {
	p.checkLive()
	e := p.eng
	if t < e.now {
		t = e.now
	}
	if e.occSum == 0 && len(e.far) == 0 {
		// The queue is empty.
		e.now = t
		e.dispatch(p)
		return true
	}
	if e.pending() {
		e.schedule(t, p)
	} else {
		d := e.due()
		if t < d {
			e.moveTo(t)
			e.dispatch(p)
			return true
		}
		e.schedule(t, p)
		e.moveTo(d)
	}
	q := e.pop()
	if block {
		p.handoff(q)
		return true
	}
	e.succ = q
	return false
}

// Op is an operation a process runs as a continuation rather than as
// body code: a state machine that keeps its own state between waits,
// such as one memory access or a range of them.
//
// The process's own goroutine calls Step first. While every wait
// completes in place the Op runs there like body code; when a Step
// returns false, the goroutine passes the Op to Continue, which returns
// once the Op is complete.
type Op interface {
	// Step runs the operation on behalf of p from the wait it last
	// stopped at (from the start on the first call). Each wait is a
	// call to p.Await; when one reports false, Step returns false at
	// once. Step returns true when the operation is complete. A Step
	// may run on any goroutine, so it must not block, park, or call
	// WaitUntil.
	Step(p *Proc) bool
}

// Continue finishes op, whose Step on p's goroutine has just returned
// false, and returns when op is complete. p's goroutine goes on
// dispatching events; from then on op's Steps run on whichever
// goroutine dispatches p's events, and p's goroutine is resumed only
// when op completes elsewhere. So an Op costs at most one switch
// however often it waits.
func (p *Proc) Continue(op Op) {
	p.op = op
	p.handoff(p.eng.succ)
}

// Advance blocks the process for d cycles.
func (p *Proc) Advance(d uint64) { p.WaitUntil(p.eng.now + d) }

// Park suspends the process indefinitely. It returns when another
// process calls Wake on it. A parked process holds no queue entry, so
// a simulation in which every live process is parked is deadlocked and
// Run panics with a diagnostic.
func (p *Proc) Park() {
	p.checkLive()
	p.parked = true
	if p.eng.simTrace {
		p.parkedAt = p.eng.now
	}
	p.handoff(p.eng.next())
}

// Wake schedules a parked process q to resume at the current simulated
// time. Waking a process that is not parked is a programming error in
// the model layer and panics. Wake must be called by the currently
// running process (or before Run starts).
func (p *Proc) Wake(q *Proc) {
	p.checkLive()
	p.eng.wake(q)
}

func (e *Engine) wake(q *Proc) {
	if !q.parked {
		panic(fmt.Sprintf("sim: Wake(%s): process is not parked", q.name))
	}
	q.parked = false
	if e.simTrace {
		e.tracer.Emit(trace.CatSim, trace.Event{
			Cycle: q.parkedAt,
			Dur:   e.now - q.parkedAt,
			Track: q.track,
			Kind:  trace.Complete,
			Name:  "blocked",
		})
	}
	e.schedule(e.now, q)
}

// Run dispatches events until none remain. It panics if a process body
// panics, naming the process, or if live processes remain parked with
// an empty event queue (model deadlock), naming the stuck processes.
// Either way the remaining processes are released first, so an aborted
// Run leaks no goroutines. Run hands control to the first process;
// from then on the processes hand it to each other, and it comes back
// to Run once the queue drains or a body panics.
func (e *Engine) Run() {
	if q := e.next(); q != nil {
		if to := e.successor(q); to != &e.run {
			e.transfer(&e.run, to)
		}
	}
	if f := e.fault; f != nil {
		e.fault = nil
		e.abort()
		panic(fmt.Sprintf("sim: process %q panicked: %v", f.proc.name, f.value))
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		e.abort()
		panic(fmt.Sprintf("sim: deadlock: %d processes parked forever: %v", len(names), names))
	}
}

// abort releases every live process after a failed Run, each through
// the coroutine slot its goroutine sits in. Stopping a slot resumes the
// goroutine in it: a process that never started is dropped without
// running, and a suspended one unwinds through releasedPanic, so its
// deferred calls run. Its exit wakes the goroutine in its own slot,
// which unwinds in turn, until the chain reaches the slot's owner and
// control returns here; one chain at a time, so the processes unwind
// one at a time. The queue is cleared with them.
func (e *Engine) abort() {
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		p.released = true
		procs = append(procs, p)
	}
	for _, p := range procs {
		if _, ok := e.live[p]; ok {
			p.slot.stop()
			delete(e.live, p)
		}
	}
	e.wheel, e.occ, e.occSum = [wheelSize]slot{}, [wheelSize / 64]uint64{}, 0
	clear(e.far)
	e.far = e.far[:0]
	e.succ = nil
}

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
// A process that waits picks its own successor from the queue. When it
// is still the earliest it keeps running with no switch and no queue
// traffic at all: WaitUntil just moves the clock. When the heap's top
// event runs next, the waiting process's event replaces it in place.
// Otherwise the process resumes its successor's goroutine directly,
// with one coroutine switch and no trip through Run or the goroutine
// scheduler.
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
	"sort"

	"fdt/internal/trace"
)

// initialHeapCap pre-sizes the future-event heap so steady-state
// simulations (a few hundred live processes in the full machine
// model) never grow it.
const initialHeapCap = 1024

// Engine owns the simulated clock and the pending-event queue.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now uint64
	seq uint64
	// events holds future events only (t > now) ordered by (t, seq);
	// events at the current cycle live in the cur FIFO. Keeping the
	// same-cycle events out of the heap gives the dominant
	// schedule-at-now case (Yield, Wake, resource handoff) an O(1)
	// fast path instead of an O(log n) sift.
	events eventHeap
	// cur is the FIFO of processes runnable at the current cycle;
	// curHead indexes the next one to dispatch.
	cur     []*Proc
	curHead int
	// dispatched counts events delivered to processes over the
	// engine's lifetime — the "simulator throughput" numerator.
	dispatched uint64
	live       map[*Proc]struct{}
	fault      *procFault
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

// procFault records a panic raised inside a process body so Run can
// re-raise it on the caller's goroutine.
type procFault struct {
	proc  *Proc
	value any
}

// NewEngine returns an engine with the clock at cycle 0 and no
// processes.
func NewEngine() *Engine {
	return &Engine{
		events: make(eventHeap, 0, initialHeapCap),
		cur:    make([]*Proc, 0, 64),
		live:   make(map[*Proc]struct{}),
	}
}

// NewEngineAt returns an engine whose clock starts at cycle now — the
// restore half of the checkpoint protocol. A restored simulation's
// processes are spawned fresh (coroutine stacks cannot be
// checkpointed), which is why checkpoints are only taken at quiescent
// points where no process is mid-flight.
func NewEngineAt(now uint64) *Engine {
	e := NewEngine()
	e.now = now
	return e
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
// which costs an allocation per scheduled event on the hottest path
// of the whole simulator.
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

// replaceTop returns the earliest event and puts ev in its place with
// one sift-down: a push and a pop folded into one.
func (h eventHeap) replaceTop(ev event) event {
	top := h[0]
	h[0] = ev
	h.down(0)
	return top
}

// schedule queues p to run at cycle t. Events at the current cycle
// take the FIFO fast path; only genuinely future events pay for heap
// maintenance. Spawn-before-Run schedules (now == 0, nothing
// dispatched yet) also take the FIFO path, preserving spawn order.
func (e *Engine) schedule(t uint64, p *Proc) {
	if t == e.now {
		e.cur = append(e.cur, p)
		return
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, p: p})
}

// next pops the earliest pending process, advancing the clock when the
// current cycle drains. It returns nil when no events remain.
func (e *Engine) next() *Proc {
	if e.curHead == len(e.cur) {
		if len(e.events) == 0 {
			return nil
		}
		e.cur, e.curHead = e.cur[:0], 0
		return e.advance(e.events.pop())
	}
	p := e.cur[e.curHead]
	e.cur[e.curHead] = nil // release for GC
	e.curHead++
	return p
}

// advance moves the clock to ev, the event just taken off the heap top
// while the cur FIFO is empty, moves every other event at that cycle
// into the FIFO (heap pops yield them in seq order, preserving the
// global (t, seq) dispatch order), and returns ev's process.
func (e *Engine) advance(ev event) *Proc {
	if ev.t < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = ev.t
	for len(e.events) > 0 && e.events[0].t == ev.t {
		e.cur = append(e.cur, e.events.pop().p)
	}
	return ev.p
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

// successor dispatches q and returns its goroutine, or Run's when q is
// nil (the queue drained).
func (e *Engine) successor(q *Proc) *thread {
	if q == nil {
		return &e.run
	}
	e.dispatch(q)
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
// the goroutine that picked p just before p runs.
func (e *Engine) dispatch(p *Proc) {
	e.dispatched++
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
// returns when p is dispatched again.
func (p *Proc) handoff(q *Proc) {
	e := p.eng
	e.transfer(&p.thread, e.successor(q))
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
//
// Only the dispatch order matters, so the queue is touched no more than
// that order needs. With events still pending at this cycle, p queues
// behind them. Otherwise, if nothing is pending at or before t, p stays
// the earliest and keeps running at t; if the heap's top event is due
// first, p's event takes its place.
func (p *Proc) WaitUntil(t uint64) {
	p.checkLive()
	e := p.eng
	if t < e.now {
		t = e.now
	}
	if e.curHead < len(e.cur) {
		e.schedule(t, p)
		p.handoff(e.next())
		return
	}
	e.cur, e.curHead = e.cur[:0], 0
	if len(e.events) == 0 || t < e.events[0].t {
		e.now = t
		e.dispatch(p)
		return
	}
	e.seq++
	p.handoff(e.advance(e.events.replaceTop(event{t: t, seq: e.seq, p: p})))
}

// Advance blocks the process for d cycles.
func (p *Proc) Advance(d uint64) { p.WaitUntil(p.eng.now + d) }

// Yield re-queues the process at the current cycle, letting any other
// process scheduled for this cycle run first.
func (p *Proc) Yield() { p.WaitUntil(p.eng.now) }

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
		e.transfer(&e.run, e.successor(q))
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
	clear(e.cur)
	e.cur = e.cur[:0]
	e.curHead = 0
	clear(e.events)
	e.events = e.events[:0]
}

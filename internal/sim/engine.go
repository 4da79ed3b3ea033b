//go:build go1.23

// Processes are iter.Pull coroutines (Go 1.23); go.mod stays at go 1.22
// so the cmd/fdtbench module, which pins go 1.22, still builds.

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
// Each process body runs as a runtime coroutine (iter.Pull), and only
// Run resumes them, one at a time. A process that waits picks its own
// successor from the queue: if that is itself it keeps running with no
// switch at all, otherwise it records the successor and suspends, and
// Run resumes the successor next. A coroutine switch hands the thread
// over directly, with no channel operation and no trip through the
// goroutine scheduler.
//
// One Engine simulates one execution as a single thread of control:
// Run and the coroutines it resumes never run at once, and Run may be
// called from any goroutine. An Engine is not safe for concurrent use.
// Host-level parallelism belongs one layer up (internal/runner), across
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
	// succ is the process Run resumes next, recorded by the process
	// that just suspended or returned; nil when the queue drained or a
	// body panicked.
	succ *Proc
	// stepHook, when non-nil, is invoked before each event dispatch,
	// from Run or from a process that is its own successor. Used by
	// tests to observe scheduling order.
	stepHook func(t uint64, p *Proc)
	// tracer receives kernel-level trace events (dispatches, blocked
	// spans) when simTrace is set; the cached boolean keeps the
	// disabled case a single predictable branch in the dispatch loop.
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
// the dispatch loop's tracing cost at one always-false branch.
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
	for {
		if e.curHead < len(e.cur) {
			p := e.cur[e.curHead]
			e.cur[e.curHead] = nil // release for GC
			e.curHead++
			return p
		}
		if len(e.events) == 0 {
			return nil
		}
		// The current cycle is exhausted: advance to the earliest
		// future time and move every event at that time into the FIFO
		// (heap pops yield them in seq order, preserving the global
		// (t, seq) dispatch order of the original design).
		e.cur = e.cur[:0]
		e.curHead = 0
		t := e.events[0].t
		if t < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = t
		for len(e.events) > 0 && e.events[0].t == t {
			e.cur = append(e.cur, e.events.pop().p)
		}
	}
}

// Proc is a simulated process: a coroutine that cooperates with the
// engine through WaitUntil, Advance, Park and Wake. All Proc methods
// must be called from the process's own body function, except Wake,
// which is called by whichever process is currently running.
type Proc struct {
	eng  *Engine
	name string
	// resume runs the process until it next suspends or returns; stop
	// releases it after an aborted Run. Both come from iter.Pull and
	// are only called by Run. yield suspends the process back to Run;
	// it reports false once the process has been released.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	// released is set by an aborted Run before it stops the process;
	// from then on the process only unwinds.
	released bool
	parked   bool
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
// time. The body runs as a coroutine that only Run resumes, one
// process at a time, so body code may freely touch shared model state
// without host-level locking.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
	if e.simTrace {
		p.track = e.tracer.Track(name)
	}
	e.live[p] = struct{}{}
	e.schedule(e.now, p)
	return p
}

// dispatch does the accounting for delivering the next event to p. It
// runs in Run before p is resumed, or in p itself when p is its own
// successor and keeps running.
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

// suspend gives up the processor after the process has queued itself
// or parked, and returns when the process is dispatched again. If the
// process is its own successor it is dispatched here and keeps
// running; otherwise it records its successor for Run and yields.
func (p *Proc) suspend() {
	e := p.eng
	q := e.next()
	if q == p {
		e.dispatch(p)
		return
	}
	e.succ = q
	if !p.yield(struct{}{}) {
		panic(releasedPanic{})
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

// exit ends the process. A normal return picks the successor for Run;
// a panic is recorded for Run, which re-raises it on the caller's
// goroutine with the process name instead of crashing the host
// process; a process released by an aborted Run has finished
// unwinding, and neither dispatches nor touches the queue.
func (p *Proc) exit() {
	e := p.eng
	r := recover()
	delete(e.live, p)
	switch {
	case p.released:
	case r != nil:
		e.fault = &procFault{proc: p, value: r}
	default:
		e.succ = e.next()
	}
}

// WaitUntil blocks the process until the simulated clock reaches t.
// Waiting for a time in the past (t <= now) re-queues the process at
// the current time, which still yields to any already-pending events
// at this cycle.
func (p *Proc) WaitUntil(t uint64) {
	p.checkLive()
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.schedule(t, p)
	p.suspend()
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
	p.suspend()
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
// Run leaks no goroutines. Run resumes one process at a time; each
// runs until it suspends or returns, having recorded its successor.
func (e *Engine) Run() {
	for q := e.next(); q != nil; q = e.succ {
		e.dispatch(q)
		e.succ = nil
		q.resume()
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

// abort releases every live process after a failed Run. A process that
// never started is dropped without running; a suspended one sees its
// yield fail and unwinds through releasedPanic, so its deferred calls
// run, one process at a time while Run waits. The queue is cleared
// with them.
func (e *Engine) abort() {
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		p.released = true
		procs = append(procs, p)
	}
	for _, p := range procs {
		p.stop()
		delete(e.live, p)
	}
	clear(e.cur)
	e.cur = e.cur[:0]
	e.curHead = 0
	clear(e.events)
	e.events = e.events[:0]
}

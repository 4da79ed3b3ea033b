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
// Each process body runs on its own goroutine, and exactly one of them
// holds the baton at a time. A process that waits picks its own
// successor from the queue: if that is itself it keeps running with no
// goroutine switch at all, otherwise it hands the baton straight to the
// successor, one switch per event. Run only starts the first process
// and then sleeps until the queue drains or a body panics.
//
// One Engine simulates one execution on one host goroutine chain; it
// is not safe for concurrent use. Host-level parallelism belongs one
// layer up (internal/runner), across independent engines.
package sim

import (
	"fmt"
	"runtime"
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
	// halt wakes Run: the process that finds the queue empty, or whose
	// body panicked, sends on it instead of handing the baton on. An
	// aborted Run also uses it to wait for each released process.
	halt chan struct{}
	// aborted is set while an aborted Run releases the processes left
	// blocked on their batons; each one then exits without running
	// model code.
	aborted bool
	// stepHook, when non-nil, is invoked before each event dispatch, on
	// whichever goroutine dispatches (a process or Run). Used by tests
	// to observe scheduling order.
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
		halt:   make(chan struct{}),
	}
}

// NewEngineAt returns an engine whose clock starts at cycle now — the
// restore half of the checkpoint protocol. A restored simulation's
// processes are spawned fresh (goroutine stacks cannot be
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

// Proc is a simulated process: a goroutine that cooperates with the
// engine through WaitUntil, Advance, Park and Wake. All Proc methods
// must be called from the process's own body function, except Wake,
// which is called by whichever process is currently running.
type Proc struct {
	eng  *Engine
	name string
	// baton resumes the process: it blocks receiving on it whenever it
	// is not running, and whoever dispatches it next sends on it — the
	// process that yielded just before, or Run for the first event.
	// The process never sends on its own baton, and a process that is
	// its own successor skips the channel altogether. An aborted Run
	// closes it to release the process.
	baton  chan struct{}
	parked bool
	// track and parkedAt support kernel-level tracing; both are
	// maintained only while the engine's simTrace flag is set.
	track    trace.TrackID
	parkedAt uint64
}

// Name reports the diagnostic name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated cycle.
func (p *Proc) Now() uint64 { return p.eng.now }

// Spawn creates a process that will first run at the current simulated
// time. The body runs on its own goroutine but only while it holds the
// baton, so body code may freely touch shared model state without
// host-level locking.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:   e,
		name:  name,
		baton: make(chan struct{}),
	}
	if e.simTrace {
		p.track = e.tracer.Track(name)
	}
	e.live[p] = struct{}{}
	go func() {
		defer p.exit()
		p.wait()
		body(p)
	}()
	e.schedule(e.now, p)
	return p
}

// dispatch does the accounting for delivering the next event to p. It
// runs on whichever goroutine picked p: Run for the first event, the
// yielding process for every later one.
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

// handoff dispatches the next pending process by passing it the
// baton, or wakes Run when no event remains. It reports whether the
// caller p is itself the next process, in which case nothing was sent
// and p simply keeps running.
func (e *Engine) handoff(p *Proc) bool {
	q := e.next()
	if q == nil {
		e.halt <- struct{}{}
		return false
	}
	e.dispatch(q)
	if q == p {
		return true
	}
	q.baton <- struct{}{}
	return false
}

// wait blocks until the process is dispatched. A process released by
// an aborted Run exits here instead, without returning to model code.
func (p *Proc) wait() {
	<-p.baton
	if p.eng.aborted {
		runtime.Goexit()
	}
}

// yield gives up the baton after the process has queued itself or
// parked, and returns when the process is dispatched again.
func (p *Proc) yield() {
	if !p.eng.handoff(p) {
		p.wait()
	}
}

// exit ends the process goroutine. A normal exit hands the baton on; a
// panic is recorded for Run, which re-raises it on the caller's
// goroutine with the process name instead of crashing the host
// process; a process released by an aborted Run only reports back.
func (p *Proc) exit() {
	e := p.eng
	r := recover()
	delete(e.live, p)
	switch {
	case e.aborted:
		e.halt <- struct{}{}
	case r != nil:
		e.fault = &procFault{proc: p, value: r}
		e.halt <- struct{}{}
	default:
		e.handoff(p)
	}
}

// WaitUntil blocks the process until the simulated clock reaches t.
// Waiting for a time in the past (t <= now) re-queues the process at
// the current time, which still yields to any already-pending events
// at this cycle.
func (p *Proc) WaitUntil(t uint64) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.schedule(t, p)
	p.yield()
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
	p.parked = true
	if p.eng.simTrace {
		p.parkedAt = p.eng.now
	}
	p.yield()
}

// Wake schedules a parked process q to resume at the current simulated
// time. Waking a process that is not parked is a programming error in
// the model layer and panics. Wake must be called by the currently
// running process (or before Run starts).
func (p *Proc) Wake(q *Proc) {
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
// Run leaks no goroutines. Run hands the first event to its process and
// then sleeps; the processes dispatch one another until the queue
// drains or a body panics.
func (e *Engine) Run() {
	if p := e.next(); p != nil {
		e.dispatch(p)
		p.baton <- struct{}{}
		<-e.halt
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

// abort releases every live process after a failed Run. Each one is
// blocked on its baton — parked, queued, or never started — and exits
// through runtime.Goexit when its baton closes. They go one at a time,
// each reporting back on halt, so any deferred model code still runs
// alone. The queue is cleared with them.
func (e *Engine) abort() {
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	e.aborted = true
	for _, p := range procs {
		close(p.baton)
		<-e.halt
	}
	e.aborted = false
	clear(e.cur)
	e.cur = e.cur[:0]
	e.curHead = 0
	clear(e.events)
	e.events = e.events[:0]
}

package sim

import (
	"runtime"
	"strings"
	"testing"
)

// scriptWait is one wait of a scriptOp: an Advance by d cycles, or,
// with r set, an AcquireAndHold of r for d cycles.
type scriptWait struct {
	d uint64
	r *Resource
}

// scriptOp runs a list of waits as one Op, with the same waits, in the
// same order, as the body code the list stands for.
type scriptOp struct {
	waits []scriptWait
	i     int
	held  bool // waits[i]'s slot has begun; the hold is next
	start uint64
	// note, when set, sees each wait's cycle before the wait.
	note func(t uint64, p *Proc)
}

// await is p.Await(t), seen by note first.
func (o *scriptOp) await(p *Proc, t uint64) bool {
	if o.note != nil {
		o.note(t, p)
	}
	return p.Await(t)
}

func (o *scriptOp) Step(p *Proc) bool {
	for o.i < len(o.waits) {
		w := o.waits[o.i]
		if w.r == nil {
			o.i++
			if !o.await(p, p.Now()+w.d) {
				return false
			}
			continue
		}
		if !o.held {
			o.start = w.r.ReserveAt(p.Now(), w.d)
			o.held = true
			if o.start > p.Now() && !o.await(p, o.start) {
				return false
			}
		}
		o.held = false
		o.i++
		if !o.await(p, o.start+w.d) {
			return false
		}
	}
	return true
}

// panicOp panics in its Step once p reaches cycle at, after advancing
// one cycle per wait.
type panicOp struct{ at uint64 }

func (o *panicOp) Step(p *Proc) bool {
	for {
		if p.Now() == o.at {
			panic("boom")
		}
		if !p.Await(p.Now() + 1) {
			return false
		}
	}
}

func TestOpStaysOnItsGoroutineWhenEarliest(t *testing.T) {
	// A lone process is always the earliest: every wait of its Op
	// moves the clock in place, and only Run's start switches. The
	// resource is idle, so its hold is one wait.
	e := NewEngine()
	e.Spawn("solo", func(p *Proc) {
		p.Do(&scriptOp{waits: []scriptWait{{d: 3}, {d: 0}, {d: 4}}})
		p.Do(&scriptOp{waits: []scriptWait{{d: 5, r: NewResource("r")}}})
	})
	e.Run()
	if e.Now() != 12 || e.Events() != 5 || e.Switches() != 1 {
		t.Errorf("clock %d, %d events, %d switches; want 12, 5, 1", e.Now(), e.Events(), e.Switches())
	}
}

func TestLockstepOpsSwitchOncePerOp(t *testing.T) {
	// Eight processes in lockstep, each running ops of 100 one-cycle
	// waits: as body code every wait hands off to the next process;
	// as Ops each process's goroutine is resumed once per Op.
	const procs, ops, waits = 8, 5, 100
	run := func(asOps bool) *Engine {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			e.Spawn("ring", func(p *Proc) {
				for j := 0; j < ops; j++ {
					if asOps {
						script := make([]scriptWait, waits)
						for k := range script {
							script[k].d = 1
						}
						p.Do(&scriptOp{waits: script})
						continue
					}
					for k := 0; k < waits; k++ {
						p.Advance(1)
					}
				}
			})
		}
		e.Run()
		return e
	}
	body, asOps := run(false), run(true)
	if asOps.Events() != body.Events() || asOps.Now() != body.Now() {
		t.Fatalf("as Ops: %d events to cycle %d; as body code: %d events to cycle %d",
			asOps.Events(), asOps.Now(), body.Events(), body.Now())
	}
	if body.Switches() < procs*ops*waits {
		t.Errorf("as body code: %d switches, want one per wait (%d)", body.Switches(), procs*ops*waits)
	}
	// One switch starts each process, and at most one resumes it per Op.
	if max := uint64(procs * (ops + 1)); asOps.Switches() > max {
		t.Errorf("as Ops: %d switches, want at most %d", asOps.Switches(), max)
	}
}

func TestOpPanicNamesItsProcess(t *testing.T) {
	// "victim"'s Op waits behind "host" from cycle 1 on, so its Steps,
	// and the one that panics at cycle 5, run on host's goroutine. The
	// panic is victim's.
	e := NewEngine()
	e.Spawn("host", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(1)
		}
	})
	stepsOnHost := 0
	e.Spawn("victim", func(p *Proc) {
		e.stepHook = func(_ uint64, q *Proc) {
			if q.op != nil {
				stepsOnHost++
			}
		}
		p.Do(&panicOp{at: 5})
	})
	msg := runExpectPanic(e)
	if !strings.Contains(msg, `"victim"`) || !strings.Contains(msg, "boom") {
		t.Errorf("panic message %q does not name victim and its cause", msg)
	}
	if stepsOnHost == 0 {
		t.Error("victim's Op never stepped on another goroutine")
	}
	if e.Now() != 5 || e.Live() != 0 {
		t.Errorf("clock %d, live %d after the panic; want 5, 0", e.Now(), e.Live())
	}
}

func TestAbortedRunReleasesProcsInsideOps(t *testing.T) {
	// Processes inside Ops whose events are queued, and one whose Op
	// was stepped elsewhere, are released by an aborted Run like any
	// other: each unwinds once, and no goroutine is left behind.
	runtime.GC()
	before := runtime.NumGoroutine()
	unwound, ranPast := 0, false
	for i := 0; i < 10; i++ {
		e := NewEngine()
		r := NewResource("bus")
		for j := 0; j < 4; j++ {
			e.Spawn("inside", func(p *Proc) {
				defer func() { unwound++ }()
				p.Do(&scriptOp{waits: []scriptWait{{d: 1}, {d: 50, r: r}, {d: 100}}})
				ranPast = true
			})
		}
		abortAtCycle1(e)
		if msg := runExpectPanic(e); !strings.Contains(msg, "boom") {
			t.Fatalf("Run raised %q", msg)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes live after the aborted Run", e.Live())
		}
	}
	if ranPast {
		t.Error("a released process returned from Do")
	}
	if unwound != 40 {
		t.Errorf("%d deferred calls ran, want 40", unwound)
	}
	waitGoroutines(t, before)
}

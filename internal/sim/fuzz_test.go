package sim

// FuzzEngine drives the event kernel with arbitrary interleavings of
// Advance/Yield/Park decoded from the fuzz input. The program is
// deadlock-free by construction: workers that park first enqueue
// themselves on a wake list, and a master process that never parks
// drains that list until every worker has finished — so any panic or
// stuck run the fuzzer finds is an engine bug, not a bad program. The
// kernel's contracts are then checked directly: every dispatch delivers
// the earliest pending event by (t, seq) of a reference queue the
// program reports its schedules to, Events() counts every dispatch,
// the same program
// replayed gives the identical event count and final clock
// (determinism), and so does the program with each worker's waits
// between parks run as one Op (an Op's waits follow WaitUntil's rules).

import (
	"fmt"
	"testing"
)

// fuzzProgram is one decoded worker schedule: op codes 0..3.
type fuzzProgram struct {
	workers int
	ops     [][]byte
}

func decodeProgram(data []byte) fuzzProgram {
	if len(data) == 0 {
		return fuzzProgram{workers: 1, ops: make([][]byte, 1)}
	}
	if len(data) > 256 {
		data = data[:256]
	}
	p := fuzzProgram{workers: 1 + int(data[0]%8)}
	p.ops = make([][]byte, p.workers)
	for i, b := range data[1:] {
		w := i % p.workers
		p.ops[w] = append(p.ops[w], b)
	}
	return p
}

// spawnProgram spawns the decoded program's workers and master on e
// and returns the count of workers that have finished. With asOps, each
// run of a worker's waits between parks is one scriptOp instead of body
// code; the dispatch order must not change. Every event the program
// schedules is reported to model, which may be nil.
func spawnProgram(e *Engine, p fuzzProgram, asOps bool, model *queueModel) *int {
	done := new(int)
	var wantWake []*Proc
	for w := 0; w < p.workers; w++ {
		ops := p.ops[w]
		worker := e.Spawn(fmt.Sprintf("worker%d", w), func(proc *Proc) {
			var script []scriptWait
			advance := func(d uint64) {
				if asOps {
					script = append(script, scriptWait{d: d})
				} else {
					model.schedule(proc.Now()+d, proc)
					proc.Advance(d)
				}
			}
			flush := func() {
				if len(script) > 0 {
					proc.Do(&scriptOp{waits: script, note: model.schedule})
					script = nil
				}
			}
			for _, b := range ops {
				switch b % 4 {
				case 0:
					advance(1 + uint64(b)/4)
				case 1:
					advance(0) // Yield
				case 2:
					// Enqueue-then-park is atomic w.r.t. the
					// single-threaded scheduler: the master can only
					// observe the queue entry once this worker has
					// actually parked.
					flush()
					wantWake = append(wantWake, proc)
					proc.Park()
				case 3:
					// Long waits: multiples of 97 up to 12,319
					// cycles, or, from 131 up, 1,008 to 1,039
					// cycles, either side of 1,024.
					if b < 128 {
						advance(uint64(b) * 97)
					} else {
						advance(1008 + uint64(b-128)/4)
					}
				}
			}
			flush()
			*done++
		})
		model.schedule(e.Now(), worker)
	}
	master := e.Spawn("master", func(proc *Proc) {
		for *done < p.workers {
			if len(wantWake) > 0 {
				q := wantWake[0]
				wantWake = wantWake[1:]
				model.schedule(proc.Now(), q)
				proc.Wake(q)
				model.schedule(proc.Now(), proc)
				proc.Yield()
				continue
			}
			model.schedule(proc.Now()+1, proc)
			proc.Advance(1)
		}
	})
	model.schedule(e.Now(), master)
	return done
}

// queueModel is the reference queue a program's dispatches must follow:
// the program reports every event it schedules, and each dispatch must
// deliver the earliest pending one by (cycle, order of scheduling).
type queueModel struct {
	seq     uint64
	pending []modelEvent
	err     string
}

type modelEvent struct {
	t, seq uint64
	p      *Proc
}

// schedule records that p was scheduled at cycle t; a nil model
// records nothing.
func (m *queueModel) schedule(t uint64, p *Proc) {
	if m == nil {
		return
	}
	m.seq++
	m.pending = append(m.pending, modelEvent{t: t, seq: m.seq, p: p})
}

// dispatch takes the earliest pending event off the model and records
// an error unless it is p's at cycle t.
func (m *queueModel) dispatch(t uint64, p *Proc) {
	if len(m.pending) == 0 {
		if m.err == "" {
			m.err = fmt.Sprintf("dispatched %s at cycle %d with no event pending", p.name, t)
		}
		return
	}
	first := 0
	for i, ev := range m.pending {
		if f := m.pending[first]; ev.t < f.t || ev.t == f.t && ev.seq < f.seq {
			first = i
		}
	}
	if ev := m.pending[first]; (ev.t != t || ev.p != p) && m.err == "" {
		m.err = fmt.Sprintf("dispatched %s at cycle %d, but the earliest event is %s's at cycle %d",
			p.name, t, ev.p.name, ev.t)
	}
	m.pending = append(m.pending[:first], m.pending[first+1:]...)
}

// runProgram executes the decoded program on a fresh engine and
// returns (events dispatched, final clock).
func runProgram(t *testing.T, p fuzzProgram, asOps bool) (uint64, uint64) {
	t.Helper()
	e := NewEngine()

	// The hook runs on process goroutines, where t.Fatalf is illegal:
	// record the first violation and report it once Run has returned.
	var lastDispatch, hooks uint64
	var backwards string
	model := &queueModel{}
	e.stepHook = func(now uint64, proc *Proc) {
		if now < lastDispatch && backwards == "" {
			backwards = fmt.Sprintf("dispatch time went backwards: %d after %d", now, lastDispatch)
		}
		lastDispatch = now
		hooks++
		model.dispatch(now, proc)
	}

	done := spawnProgram(e, p, asOps, model)
	e.Run()

	if backwards != "" {
		t.Fatal(backwards)
	}
	if model.err != "" {
		t.Fatal(model.err)
	}
	if len(model.pending) != 0 {
		t.Fatalf("%d scheduled events never dispatched", len(model.pending))
	}
	if *done != p.workers {
		t.Fatalf("%d of %d workers finished", *done, p.workers)
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after Run", e.Live())
	}
	if e.Events() != hooks {
		t.Fatalf("Events() = %d, but the step hook saw %d dispatches", e.Events(), hooks)
	}
	return e.Events(), e.Now()
}

// fuzzSeeds is FuzzEngine's inline seed corpus; the dispatch-order
// golden replays it along with the files under testdata/fuzz.
var fuzzSeeds = [][]byte{
	{},
	{0},
	{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2},
	{7, 2, 2, 2, 2, 2, 2, 2, 2},
	{1, 0, 4, 8, 12, 255, 251, 2, 6},
	{3, 195, 191, 199, 187, 203, 183, 0, 2, 1, 207, 179, 211, 4, 175},
}

func FuzzEngine(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		events1, now1 := runProgram(t, p, false)
		events2, now2 := runProgram(t, p, false)
		if events1 != events2 || now1 != now2 {
			t.Fatalf("non-deterministic replay: (%d events, clock %d) then (%d events, clock %d)",
				events1, now1, events2, now2)
		}
		if events3, now3 := runProgram(t, p, true); events3 != events1 || now3 != now1 {
			t.Fatalf("as Ops: (%d events, clock %d), as body code: (%d events, clock %d)",
				events3, now3, events1, now1)
		}
	})
}

package sim

// FuzzEngine drives the event kernel with arbitrary interleavings of
// Advance/Yield/Park decoded from the fuzz input. The program is
// deadlock-free by construction: workers that park first enqueue
// themselves on a wake list, and a master process that never parks
// drains that list until every worker has finished — so any panic or
// stuck run the fuzzer finds is an engine bug, not a bad program. The
// kernel's contracts are then checked directly: dispatch times never
// go backwards, Events() counts every dispatch, and the same program
// replayed gives the identical event count and final clock
// (determinism).

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
// and returns the count of workers that have finished.
func spawnProgram(e *Engine, p fuzzProgram) *int {
	done := new(int)
	var wantWake []*Proc
	for w := 0; w < p.workers; w++ {
		ops := p.ops[w]
		e.Spawn(fmt.Sprintf("worker%d", w), func(proc *Proc) {
			for _, b := range ops {
				switch b % 4 {
				case 0:
					proc.Advance(1 + uint64(b)/4)
				case 1:
					proc.Yield()
				case 2:
					// Enqueue-then-park is atomic w.r.t. the
					// single-threaded scheduler: the master can only
					// observe the queue entry once this worker has
					// actually parked.
					wantWake = append(wantWake, proc)
					proc.Park()
				case 3:
					proc.Advance(uint64(b) * 97)
				}
			}
			*done++
		})
	}
	e.Spawn("master", func(proc *Proc) {
		for *done < p.workers {
			if len(wantWake) > 0 {
				q := wantWake[0]
				wantWake = wantWake[1:]
				proc.Wake(q)
				proc.Yield()
				continue
			}
			proc.Advance(1)
		}
	})
	return done
}

// runProgram executes the decoded program on a fresh engine and
// returns (events dispatched, final clock).
func runProgram(t *testing.T, p fuzzProgram) (uint64, uint64) {
	t.Helper()
	e := NewEngine()

	// The hook runs on process goroutines, where t.Fatalf is illegal:
	// record the first violation and report it once Run has returned.
	var lastDispatch, hooks uint64
	var backwards string
	e.stepHook = func(now uint64, _ *Proc) {
		if now < lastDispatch && backwards == "" {
			backwards = fmt.Sprintf("dispatch time went backwards: %d after %d", now, lastDispatch)
		}
		lastDispatch = now
		hooks++
	}

	done := spawnProgram(e, p)
	e.Run()

	if backwards != "" {
		t.Fatal(backwards)
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
}

func FuzzEngine(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		events1, now1 := runProgram(t, p)
		events2, now2 := runProgram(t, p)
		if events1 != events2 || now1 != now2 {
			t.Fatalf("non-deterministic replay: (%d events, clock %d) then (%d events, clock %d)",
				events1, now1, events2, now2)
		}
	})
}

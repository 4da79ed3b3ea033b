package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runExpectPanic runs e and returns the message Run panicked with, or
// "" if it returned normally.
func runExpectPanic(e *Engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	e.Run()
	return ""
}

// waitGoroutines polls until at most n goroutines remain; a released
// goroutine may still be unwinding for a moment after Run returns.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicInProcResumedByProc(t *testing.T) {
	// Run dispatches only the first event; faulty's second event is
	// handed to it by "a", so the panic surfaces through a
	// process-to-process handoff.
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(1)
		}
	})
	e.Spawn("faulty", func(p *Proc) {
		p.Advance(5)
		panic("boom")
	})
	msg := runExpectPanic(e)
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, `"faulty"`) {
		t.Errorf("panic message %q missing process name or cause", msg)
	}
	if e.Now() != 5 {
		t.Errorf("clock %d at the panic, want 5", e.Now())
	}
}

func TestDeadlockMidChain(t *testing.T) {
	// "a" parks at once, "c" finishes, and "b" — the last runnable
	// process — parks at cycle 5: the process that finds the queue
	// empty is a parking one, not an exiting one.
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Park() })
	e.Spawn("b", func(p *Proc) {
		p.Advance(3)
		p.Advance(2)
		p.Park()
	})
	e.Spawn("c", func(p *Proc) { p.Advance(1) })
	msg := runExpectPanic(e)
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "[a b]") {
		t.Errorf("panic message %q does not name the stuck processes [a b]", msg)
	}
	if e.Now() != 5 {
		t.Errorf("clock %d at the deadlock, want 5", e.Now())
	}
}

func TestRunAgainAfterReturn(t *testing.T) {
	e := NewEngine()
	e.Spawn("first", func(p *Proc) { p.Advance(10) })
	e.Run()
	var at []uint64
	e.Spawn("second", func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(5)
		at = append(at, p.Now())
	})
	e.Run()
	if fmt.Sprint(at) != "[10 15]" {
		t.Errorf("second run stepped at %v, want [10 15]", at)
	}
	if e.Events() != 4 || e.Live() != 0 {
		t.Errorf("events %d, live %d after two runs; want 4, 0", e.Events(), e.Live())
	}
}

func TestAbortedRunLeaksNoGoroutines(t *testing.T) {
	// A process panic leaves processes parked, queued for a later
	// cycle, and spawned but never started; a deadlock leaves them all
	// parked, the last one mid-handoff. Every one must exit, and none
	// may run model code after the abort.
	runtime.GC()
	before := runtime.NumGoroutine()
	resumed := false
	for i := 0; i < 10; i++ {
		e := NewEngine()
		for j := 0; j < 4; j++ {
			e.Spawn("parked", func(p *Proc) {
				p.Park()
				resumed = true
			})
			e.Spawn("queued", func(p *Proc) {
				p.Advance(100)
				resumed = true
			})
		}
		e.Spawn("faulty", func(p *Proc) {
			p.Advance(1)
			p.eng.Spawn("unstarted", func(*Proc) { resumed = true })
			panic("boom")
		})
		if msg := runExpectPanic(e); !strings.Contains(msg, "boom") {
			t.Fatalf("process panic: Run raised %q", msg)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes live after a panicked Run", e.Live())
		}

		e = NewEngine()
		for j := 0; j < 4; j++ {
			e.Spawn("parked", func(p *Proc) {
				p.Park()
				resumed = true
			})
		}
		e.Spawn("last", func(p *Proc) {
			p.Advance(1)
			p.Park()
			resumed = true
		})
		if msg := runExpectPanic(e); !strings.Contains(msg, "deadlock") {
			t.Fatalf("deadlock: Run raised %q", msg)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes live after a deadlocked Run", e.Live())
		}
	}
	if resumed {
		t.Error("a released process ran model code")
	}
	waitGoroutines(t, before)
}

// abortAtCycle1 spawns processes that are queued for cycle 100 and a
// process that panics at cycle 1, so Run aborts with the queue
// non-empty.
func abortAtCycle1(e *Engine) {
	for j := 0; j < 3; j++ {
		e.Spawn("queued", func(p *Proc) { p.Advance(100) })
	}
	e.Spawn("faulty", func(p *Proc) {
		p.Advance(1)
		panic("boom")
	})
}

func TestReleasedProcCannotWaitAgain(t *testing.T) {
	// A body that recovers the release sentinel and then waits, parks
	// or wakes must unwind again at once: it may neither run past the
	// call nor touch the queue, and its exit may not pick a successor
	// (which would advance the clock to the queued cycle 100).
	for _, again := range []string{"advance", "park", "wake", "return"} {
		t.Run(again, func(t *testing.T) {
			e := NewEngine()
			peer := e.Spawn("peer", func(p *Proc) { p.Park() })
			recovered, ranPast := false, false
			e.Spawn("stubborn", func(p *Proc) {
				func() {
					defer func() { recovered = recover() != nil }()
					p.Park()
				}()
				switch again {
				case "advance":
					p.Advance(5)
				case "park":
					p.Park()
				case "wake":
					p.Wake(peer)
				case "return":
					return
				}
				ranPast = true
			})
			abortAtCycle1(e)
			if msg := runExpectPanic(e); !strings.Contains(msg, "boom") {
				t.Fatalf("Run raised %q", msg)
			}
			if !recovered {
				t.Fatal("the released body saw no panic to recover")
			}
			if ranPast {
				t.Errorf("released body ran past %s", again)
			}
			if e.Now() != 1 || e.Live() != 0 {
				t.Errorf("clock %d, live %d after abort; want 1, 0", e.Now(), e.Live())
			}
			if !peer.parked {
				t.Error("released body woke its peer")
			}
			if q := e.next(); q != nil {
				t.Errorf("queue holds %q after abort", q.name)
			}
		})
	}
}

func TestReleasedProcDefersRunOnce(t *testing.T) {
	// Deferred calls of parked and queued processes run exactly once
	// when an aborted Run releases them, in the process's own frame,
	// one process at a time; a process that never started runs none.
	e := NewEngine()
	defers := map[string]int{}
	running := 0
	body := func(name string, wait func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() {
				running++
				defers[name]++
				if running != 1 {
					t.Errorf("%s: %d deferred calls running at once", name, running)
				}
				running--
			}()
			wait(p)
		})
	}
	body("parked", func(p *Proc) { p.Park() })
	body("queued", func(p *Proc) { p.Advance(100) })
	e.Spawn("faulty", func(p *Proc) {
		p.Advance(1)
		body("unstarted", func(p *Proc) {})
		panic("boom")
	})
	if msg := runExpectPanic(e); !strings.Contains(msg, "boom") {
		t.Fatalf("Run raised %q", msg)
	}
	want := map[string]int{"parked": 1, "queued": 1}
	if fmt.Sprint(defers) != fmt.Sprint(want) {
		t.Errorf("deferred calls ran %v, want %v", defers, want)
	}
}

func TestRunOnAnotherGoroutine(t *testing.T) {
	// Processes spawned on one goroutine and run from another, as a
	// runner worker does: the schedule is unchanged, and an aborted Run
	// still releases every process.
	runtime.GC()
	before := runtime.NumGoroutine()
	build := func(e *Engine, order *[]string) {
		var parker *Proc
		parker = e.Spawn("parker", func(p *Proc) {
			p.Park()
			*order = append(*order, fmt.Sprintf("parker@%d", p.Now()))
		})
		e.Spawn("waker", func(p *Proc) {
			p.Advance(3)
			*order = append(*order, fmt.Sprintf("waker@%d", p.Now()))
			p.Wake(parker)
			p.Advance(1)
			*order = append(*order, fmt.Sprintf("waker@%d", p.Now()))
		})
	}
	var same, other []string
	e := NewEngine()
	build(e, &same)
	e.Run()
	e2 := NewEngine()
	build(e2, &other)
	done := make(chan string)
	go func() {
		e2.Run()
		done <- ""
	}()
	<-done
	if fmt.Sprint(other) != fmt.Sprint(same) || e2.Events() != e.Events() {
		t.Errorf("run on another goroutine: %v (%d events), want %v (%d events)",
			other, e2.Events(), same, e.Events())
	}

	e3 := NewEngine()
	e3.Spawn("parked", func(p *Proc) { p.Park() })
	abortAtCycle1(e3)
	go func() { done <- runExpectPanic(e3) }()
	if msg := <-done; !strings.Contains(msg, "boom") {
		t.Fatalf("aborted Run on another goroutine raised %q", msg)
	}
	if e3.Live() != 0 {
		t.Fatalf("%d processes live after the aborted Run", e3.Live())
	}
	waitGoroutines(t, before)
}

// BenchmarkEngineHandoff measures the kernel's per-event cost on five
// schedules: pingpong switches between two processes on every event,
// solo is one process that is always its own successor, ring8 and
// ring32 are eight and 32 processes that advance one cycle round-robin,
// the shape of a lockstep team, so every event hands off to another
// process, and far is ring8 with waits of wheelSize cycles, each of
// which goes through the far heap.
func BenchmarkEngineHandoff(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) {
		e := NewEngine()
		parker := e.Spawn("parker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Park()
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
				p.Wake(parker)
			}
		})
		b.ResetTimer()
		e.Run()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Events()), "ns/event")
	})
	b.Run("solo", func(b *testing.B) {
		e := NewEngine()
		e.Spawn("solo", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
		b.ResetTimer()
		e.Run()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Events()), "ns/event")
	})
	ring := func(b *testing.B, procs int, wait uint64) {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("ring%d", i), func(p *Proc) {
				for j := 0; j < b.N/procs+1; j++ {
					p.Advance(wait)
				}
			})
		}
		b.ResetTimer()
		e.Run()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Events()), "ns/event")
	}
	b.Run("ring8", func(b *testing.B) { ring(b, 8, 1) })
	b.Run("ring32", func(b *testing.B) { ring(b, 32, 1) })
	b.Run("far", func(b *testing.B) { ring(b, 8, wheelSize) })
}

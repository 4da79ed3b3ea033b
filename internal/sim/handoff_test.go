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

// BenchmarkEngineHandoff measures the kernel's per-event cost on its
// two handoff paths: a baton pass between two goroutines, and a
// process that is its own successor and never switches.
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
}

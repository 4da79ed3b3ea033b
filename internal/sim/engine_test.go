package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvances(t *testing.T) {
	e := NewEngine()
	var at []uint64
	e.Spawn("a", func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(10)
		at = append(at, p.Now())
		p.Advance(5)
		at = append(at, p.Now())
	})
	e.Run()
	want := []uint64{0, 10, 15}
	if len(at) != len(want) {
		t.Fatalf("got %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("step %d: at cycle %d, want %d", i, at[i], want[i])
		}
	}
	if e.Now() != 15 {
		t.Errorf("final clock %d, want 15", e.Now())
	}
}

func TestProcsInterleaveByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string, p *Proc) { order = append(order, fmt.Sprintf("%s@%d", s, p.Now())) }
	e.Spawn("a", func(p *Proc) {
		log("a", p)
		p.Advance(10)
		log("a", p)
	})
	e.Spawn("b", func(p *Proc) {
		log("b", p)
		p.Advance(3)
		log("b", p)
		p.Advance(20)
		log("b", p)
	})
	e.Run()
	want := []string{"a@0", "b@0", "b@3", "a@10", "b@23"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestFIFOTieBreakAtSameCycle(t *testing.T) {
	// Processes scheduled for the same cycle run in scheduling order.
	e := NewEngine()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			order = append(order, name)
			p.Advance(7)
			order = append(order, name)
		})
	}
	e.Run()
	want := []string{"p0", "p1", "p2", "p0", "p1", "p2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEngine()
	var consumer *Proc
	var got uint64
	consumer = e.Spawn("consumer", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Advance(42)
		p.Wake(consumer)
	})
	e.Run()
	if got != 42 {
		t.Errorf("consumer woke at %d, want 42", got)
	}
}

func TestWaitUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Advance(10)
		p.WaitUntil(3) // in the past: must not move time backwards
		if p.Now() != 10 {
			t.Errorf("clock went backwards to %d", p.Now())
		}
	})
	e.Run()
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic, got none")
		}
	}()
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	e.Run()
}

func TestWakeUnparkedPanics(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(p *Proc) { p.Advance(100) })
	e.Spawn("b", func(p *Proc) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected panic waking unparked process")
			}
		}()
		p.Wake(a) // a is queued, not parked
	})
	e.Run()
}

func TestSpawnFromWithinProc(t *testing.T) {
	e := NewEngine()
	var childAt uint64
	e.Spawn("parent", func(p *Proc) {
		p.Advance(5)
		p.eng.Spawn("child", func(c *Proc) {
			childAt = c.Now()
			c.Advance(1)
		})
		p.Advance(10)
	})
	e.Run()
	if childAt != 5 {
		t.Errorf("child first ran at %d, want 5", childAt)
	}
	if e.Now() != 15 {
		t.Errorf("final clock %d, want 15", e.Now())
	}
}

func TestYieldGivesWayToSameCycleEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	var b *Proc
	e.Spawn("a", func(p *Proc) {
		p.Yield() // b's initial event is pending at cycle 0
		order = append(order, "a")
	})
	b = e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	_ = b
	e.Run()
	if fmt.Sprint(order) != fmt.Sprint([]string{"b", "a"}) {
		t.Errorf("order = %v, want [b a]", order)
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected Run to re-raise the process panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "faulty") {
			t.Errorf("panic message %q missing process name or cause", msg)
		}
	}()
	e := NewEngine()
	e.Spawn("faulty", func(p *Proc) {
		p.Advance(5)
		panic("boom")
	})
	e.Run()
}

func TestLiveCount(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Advance(1) })
	e.Spawn("b", func(p *Proc) { p.Advance(2) })
	if e.Live() != 2 {
		t.Fatalf("live = %d before run, want 2", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("live = %d after run, want 0", e.Live())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// The same model must produce an identical event trace on every
	// run, regardless of host goroutine scheduling.
	trace := func() []string {
		e := NewEngine()
		var tr []string
		// The hook runs on process goroutines: it only records, and the
		// comparison happens after Run returns.
		e.stepHook = func(tm uint64, p *Proc) {
			tr = append(tr, fmt.Sprintf("%d:%s", tm, p.Name()))
		}
		r := new(Resource)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("w%d", i)
			delay := uint64(i % 3)
			e.Spawn(name, func(p *Proc) {
				p.Advance(delay)
				for j := 0; j < 4; j++ {
					r.AcquireAndHold(p, 10)
					p.Advance(uint64(j))
				}
			})
		}
		e.Run()
		return tr
	}
	first := fmt.Sprint(trace())
	for i := 0; i < 5; i++ {
		if got := fmt.Sprint(trace()); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestPropertyClockMonotone(t *testing.T) {
	// Property: for any set of random process schedules the observed
	// dispatch times are non-decreasing.
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := NewEngine()
		var last uint64
		ok := true
		// Recorded on process goroutines, checked after Run returns.
		e.stepHook = func(tm uint64, p *Proc) {
			if tm < last {
				ok = false
			}
			last = tm
		}
		for i, d := range delays {
			d := uint64(d % 1000)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Advance(d)
				p.Advance(d / 2)
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

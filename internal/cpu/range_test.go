package cpu

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fdt/internal/counters"
	"fdt/internal/mem"
	"fdt/internal/sim"
)

// lockstep runs contexts CPUs, one per core, each loading its own
// 32 KB region rounds+1 times: once cold, then rounds times out of its
// L2 (the region is four times the L1). With perLine, each pass is a
// Load per line instead of one LoadRange. It returns the engine after
// Run.
func lockstep(t *testing.T, contexts, rounds int, perLine bool) *sim.Engine {
	t.Helper()
	const bytes = 32 << 10
	sys := mem.MustNewSystem(mem.DefaultConfig(), counters.NewSet())
	e := sim.NewEngine()
	for i := 0; i < contexts; i++ {
		base := sys.Alloc(bytes)
		e.Spawn(fmt.Sprintf("ctx%d", i), func(p *sim.Proc) {
			c := New(i, 2, p, sys.Port(i))
			for r := 0; r <= rounds; r++ {
				if !perLine {
					c.LoadRange(base, bytes)
					continue
				}
				for a := base; a < base+bytes; a += 64 {
					c.Load(a)
				}
			}
		})
	}
	e.Run()
	return e
}

func TestLockstepRangesSwitchOncePerRange(t *testing.T) {
	// Eight contexts stream L2-resident lines in lockstep, so every
	// wait of every line is behind another context's. A whole range
	// runs as one access: its waits are stepped by whichever context
	// dispatches them, and a context's goroutine is resumed once per
	// range. A Load per line is one access per line.
	const contexts, rounds, lines = 8, 4, (32 << 10) / 64
	ranges, loads := lockstep(t, contexts, rounds, false), lockstep(t, contexts, rounds, true)
	if ranges.Now() != loads.Now() || ranges.Events() != loads.Events() {
		t.Fatalf("LoadRange: %d events to cycle %d; Load per line: %d events to cycle %d",
			ranges.Events(), ranges.Now(), loads.Events(), loads.Now())
	}
	// Per context: one switch to start it, at most one per range, and
	// one for its exit to pass control on; then one back to Run.
	if max := uint64(contexts*(rounds+1+2) + 1); ranges.Switches() > max {
		t.Errorf("LoadRange: %d switches, want at most %d (one per range per context)", ranges.Switches(), max)
	}
	if max := uint64(contexts*((rounds+1)*lines+2) + 1); loads.Switches() > max {
		t.Errorf("Load per line: %d switches, want at most %d (one per access)", loads.Switches(), max)
	}
	t.Logf("switches: %d for LoadRange, %d for a Load per line (%d lines per context)",
		ranges.Switches(), loads.Switches(), (rounds+1)*lines)
}

func TestLockstepColumnsSwitchOncePerColumn(t *testing.T) {
	// Eight contexts each walk columns of their own row-major matrix in
	// lockstep, every load a fresh line, as transpose does. A column is
	// one strided access: however often its loads wait behind another
	// context, the context's goroutine is resumed at most once per
	// column. Loaded one by one, the column costs a switch per load.
	const contexts, rows, columns, pitch = 8, 128, 8, 8 << 10
	run := func(strided bool) *sim.Engine {
		sys := mem.MustNewSystem(mem.DefaultConfig(), counters.NewSet())
		e := sim.NewEngine()
		for i := 0; i < contexts; i++ {
			base := sys.Alloc(rows * pitch)
			e.Spawn(fmt.Sprintf("ctx%d", i), func(p *sim.Proc) {
				c := New(i, 2, p, sys.Port(i))
				for j := uint64(0); j < columns; j++ {
					if strided {
						c.LoadStride(base+8*j, pitch, rows)
						continue
					}
					for r := uint64(0); r < rows; r++ {
						c.Load(base + r*pitch + 8*j)
					}
				}
			})
		}
		e.Run()
		return e
	}
	strided, loads := run(true), run(false)
	if strided.Now() != loads.Now() || strided.Events() != loads.Events() {
		t.Fatalf("LoadStride: %d events to cycle %d; Load per row: %d events to cycle %d",
			strided.Events(), strided.Now(), loads.Events(), loads.Now())
	}
	// Per context: one switch to start it, at most one per column, and
	// one for its exit to pass control on; then one back to Run.
	if max := uint64(contexts*(columns+2) + 1); strided.Switches() > max {
		t.Errorf("LoadStride: %d switches, want at most %d (one per column per context)", strided.Switches(), max)
	}
	if loads.Switches() <= contexts*columns*rows/2 {
		t.Errorf("Load per row: only %d switches: the contexts did not run in lockstep", loads.Switches())
	}
	t.Logf("switches: %d for LoadStride, %d for a Load per row (%d columns of %d rows per context)",
		strided.Switches(), loads.Switches(), columns, rows)
}

func TestRangeAccessAllocatesNothing(t *testing.T) {
	// A range of cold lines, and a strided column of them, walk the
	// whole hierarchy down to DRAM and the bus while a second context
	// streams its own ranges, so Steps of each run on the other's
	// goroutine. None of it allocates.
	sys := mem.MustNewSystem(mem.DefaultConfig(), counters.NewSet())
	e := sim.NewEngine()
	const bytes, pitch = 16 * 64, 4096
	mine, cols, theirs := sys.Alloc(64*bytes), sys.Alloc(16*pitch), sys.Alloc(1<<20)
	stop := false
	var allocs float64
	e.Spawn("measured", func(p *sim.Proc) {
		c := New(0, 2, p, sys.Port(0))
		base, col := mine, cols
		allocs = testing.AllocsPerRun(50, func() {
			c.LoadRange(base, bytes)
			c.StoreRange(base, bytes)
			c.LoadStride(col, pitch, 16)
			base += bytes
			col += 64
		})
		stop = true
	})
	e.Spawn("streamer", func(p *sim.Proc) {
		c := New(1, 2, p, sys.Port(1))
		for base := theirs; !stop; base += bytes {
			c.LoadRange(base, bytes)
		}
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("a range or strided access allocates %v times", allocs)
	}
	if e.Switches() < 50 {
		t.Errorf("only %d switches: the two contexts did not interleave", e.Switches())
	}
}

func TestAbortedRunMidAccessLeaksNoGoroutines(t *testing.T) {
	// A panic at cycle 300 aborts Run while four contexts are inside
	// range accesses, queued on the DRAM banks and the bus. Every
	// context unwinds, and none returns from its access.
	runtime.GC()
	before := runtime.NumGoroutine()
	returned := false
	for i := 0; i < 5; i++ {
		sys := mem.MustNewSystem(mem.DefaultConfig(), counters.NewSet())
		e := sim.NewEngine()
		for j := 0; j < 4; j++ {
			base := sys.Alloc(64 * 64)
			e.Spawn("streamer", func(p *sim.Proc) {
				New(j, 2, p, sys.Port(j)).LoadRange(base, 64*64)
				returned = true
			})
		}
		e.Spawn("faulty", func(p *sim.Proc) {
			p.Advance(300)
			panic("boom")
		})
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			e.Run()
			return ""
		}()
		if !strings.Contains(msg, `"faulty"`) {
			t.Fatalf("Run raised %q", msg)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes live after the aborted Run", e.Live())
		}
	}
	if returned {
		t.Error("a released context returned from its access")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkLockstepRange times eight contexts that each stream their
// own L2-resident 32 KB region (512 lines) with LoadRange, in lockstep:
// one op is one range per context. It reports host ns per line and the
// coroutine switches per range.
func BenchmarkLockstepRange(b *testing.B) {
	const contexts, bytes = 8, 32 << 10
	sys := mem.MustNewSystem(mem.DefaultConfig(), counters.NewSet())
	e := sim.NewEngine()
	for i := 0; i < contexts; i++ {
		base := sys.Alloc(bytes)
		e.Spawn(fmt.Sprintf("ctx%d", i), func(p *sim.Proc) {
			c := New(i, 2, p, sys.Port(i))
			c.LoadRange(base, bytes) // cold: fill the L2
			for r := 0; r < b.N; r++ {
				c.LoadRange(base, bytes)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*contexts*bytes/64), "ns/line")
	b.ReportMetric(float64(e.Switches())/float64((b.N+1)*contexts), "switches/range")
}

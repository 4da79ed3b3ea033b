package mem

import (
	"fmt"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/sim"
)

func TestRangeEqualsItsLines(t *testing.T) {
	// A range access is its lines' single accesses back to back: the
	// same clock, events and counters, while two cores contend for the
	// L3, bus and DRAM so that each one's Steps run on the other's
	// goroutine. The store case overflows the store buffer. The ranges
	// start and end mid-line.
	for _, kind := range []string{"load", "store-stream"} {
		t.Run(kind, func(t *testing.T) {
			run := func(ranged bool) string {
				ctrs := counters.NewSet()
				s := MustNewSystem(DefaultConfig(), ctrs)
				e := sim.NewEngine()
				const bytes = 40*64 + 10
				for c := 0; c < 2; c++ {
					base := s.Alloc(2*bytes) + 24
					e.Spawn(fmt.Sprintf("core%d", c), func(p *sim.Proc) {
						pt := s.Port(c)
						for r := 0; r < 2; r++ {
							switch {
							case ranged && kind == "load":
								pt.LoadRange(p, base, bytes)
							case ranged:
								pt.StoreStreamRange(p, base, bytes)
							default:
								for a := base &^ 63; a < base+bytes; a += 64 {
									if kind == "load" {
										pt.Load(p, a)
									} else {
										pt.StoreStream(p, a)
									}
								}
							}
						}
					})
				}
				e.Run()
				return fmt.Sprintf("clock %d, %d events, counters %v", e.Now(), e.Events(), ctrs.Values())
			}
			if lines, ranges := run(false), run(true); ranges != lines {
				t.Errorf("as ranges: %s\nline by line: %s", ranges, lines)
			}
		})
	}
}

func TestStrideEqualsItsLoads(t *testing.T) {
	// A strided load is its addresses' Loads issued one by one: the
	// same clock, events and counters while two cores contend for the
	// L3, bus and DRAM, so that each one's Steps run on the other's
	// goroutine. A stride of many lines misses on every address, one
	// below the line size hits the lines it has just loaded, n = 1 is a
	// single Load and n = 0 loads nothing.
	for _, tc := range []struct {
		stride uint64
		n      int
	}{{33*64 + 8, 40}, {24, 40}, {8, 1}, {4096, 0}} {
		t.Run(fmt.Sprintf("stride=%d/n=%d", tc.stride, tc.n), func(t *testing.T) {
			run := func(strided bool) string {
				ctrs := counters.NewSet()
				s := MustNewSystem(DefaultConfig(), ctrs)
				e := sim.NewEngine()
				for c := 0; c < 2; c++ {
					base := s.Alloc(int(tc.stride)*(tc.n+1)) + 40
					e.Spawn(fmt.Sprintf("core%d", c), func(p *sim.Proc) {
						pt := s.Port(c)
						for r := 0; r < 2; r++ {
							if strided {
								pt.LoadStride(p, base, tc.stride, tc.n)
								continue
							}
							for i := 0; i < tc.n; i++ {
								pt.Load(p, base+uint64(i)*tc.stride)
							}
						}
					})
				}
				e.Run()
				return fmt.Sprintf("clock %d, %d events, counters %v", e.Now(), e.Events(), ctrs.Values())
			}
			if loads, strided := run(false), run(true); strided != loads {
				t.Errorf("strided: %s\none by one: %s", strided, loads)
			}
		})
	}
}

func TestOwnedStoreHitCountsAsLookup(t *testing.T) {
	// A store to a line the core owns finishes in the private caches
	// with one tag scan per cache. It must count as the Lookups it
	// replaces: a hit in the L2, marked dirty, and a hit in the L1
	// when the line is there, left clean; a cache that misses counts
	// nothing. At each store the owned line is clean and a line of
	// the same sets was loaded after it, so the store must move the
	// owned line to the front of its set and dirty it, not the line
	// that was there.
	s := MustNewSystem(DefaultConfig(), counters.NewSet())
	e := sim.NewEngine()
	pt := s.Port(0)
	stride := uint64(pt.l2.Sets()) << s.lineShift
	a := s.Alloc(int(stride) + 64)
	other := a + stride
	line, otherLine := a>>s.lineShift, other>>s.lineShift
	e.Spawn("core0", func(p *sim.Proc) {
		pt.Store(p, a) // read for ownership
		for _, inL1 := range []bool{true, false} {
			if !inL1 {
				pt.l1.Invalidate(line)
			}
			pt.l2.Clean(line)
			pt.l1.Invalidate(otherLine) // so the load reaches the L2
			pt.Load(p, other)
			if pt.l1.Contains(line) != inL1 || !pt.l2.Contains(line) || !pt.ownsExclusive(line) {
				t.Fatalf("inL1 %v: line not set up as owned", inL1)
			}
			if _, way := pt.l2.find(line); way == 0 || pt.l2.Dirty(line) || pt.l2.Dirty(otherLine) {
				t.Fatalf("inL1 %v: owned line at L2 way %d, dirty %v, other line dirty %v; want a clean line behind a clean one",
					inL1, way, pt.l2.Dirty(line), pt.l2.Dirty(otherLine))
			}
			l1h, l1m, l2h, l2m := pt.l1.Hits, pt.l1.Misses, pt.l2.Hits, pt.l2.Misses
			pt.Store(p, a)
			wantL1 := l1h
			if inL1 {
				wantL1++
			}
			if pt.l1.Hits != wantL1 || pt.l1.Misses != l1m || pt.l2.Hits != l2h+1 || pt.l2.Misses != l2m {
				t.Errorf("inL1 %v: L1 %d/%d hits/misses, L2 %d/%d; want L1 %d/%d, L2 %d/%d",
					inL1, pt.l1.Hits, pt.l1.Misses, pt.l2.Hits, pt.l2.Misses, wantL1, l1m, l2h+1, l2m)
			}
			if !pt.l2.Dirty(line) || pt.l1.Dirty(line) || pt.l2.Dirty(otherLine) {
				t.Errorf("inL1 %v: L2 dirty %v, L1 dirty %v, other line's L2 dirty %v; want only the owned line's L2 copy dirty",
					inL1, pt.l2.Dirty(line), pt.l1.Dirty(line), pt.l2.Dirty(otherLine))
			}
			if _, way := pt.l2.find(line); way != 0 {
				t.Errorf("inL1 %v: owned line at L2 way %d after the store, want the most recently used way 0", inL1, way)
			}
			if _, way := pt.l1.find(line); inL1 && way != 0 {
				t.Errorf("owned line at L1 way %d after the store, want the most recently used way 0", way)
			}
		}
	})
	e.Run()
}

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
				return fmt.Sprintf("clock %d, %d events, counters %v", e.Now(), e.Events(), ctrs.Checkpoint())
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
				return fmt.Sprintf("clock %d, %d events, counters %v", e.Now(), e.Events(), ctrs.Checkpoint())
			}
			if loads, strided := run(false), run(true); strided != loads {
				t.Errorf("strided: %s\none by one: %s", strided, loads)
			}
		})
	}
}

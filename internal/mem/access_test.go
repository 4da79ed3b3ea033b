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

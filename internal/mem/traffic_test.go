package mem

import (
	"math/rand"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/invariant"
	"fdt/internal/sim"
)

// TestMixedTrafficStaysCoherent runs four cores' loads, stores and
// streaming stores over a shared region and a private region each, on
// a machine small enough that the traffic evicts from every cache
// level and moves lines between owners, with the invariant harness
// armed: the continuous directory checks, the bus and DRAM audits, and
// the quiescent directory-vs-cache walk must all pass.
func TestMixedTrafficStaysCoherent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.L3Bytes = 256 << 10
	s := MustNewSystem(cfg, counters.NewSet())
	ck := invariant.New()
	s.SetChecker(ck)
	shared := s.Alloc(512 << 10)
	e := sim.NewEngine()
	for _, core := range []int{0, 1, 5, 7} {
		pt, private := s.Port(core), s.Alloc(96<<10)
		rng := rand.New(rand.NewSource(1 + int64(core)))
		e.Spawn("traffic", func(p *sim.Proc) {
			for n := 0; n < 3000; n++ {
				addr := shared + uint64(rng.Intn(512<<10))
				if rng.Intn(2) == 0 {
					addr = private + uint64(rng.Intn(96<<10))
				}
				switch rng.Intn(4) {
				case 0:
					pt.Store(p, addr)
				case 1:
					pt.StoreStream(p, addr)
				default:
					pt.Load(p, addr)
				}
			}
		})
	}
	e.Run()
	s.FinishCheck(e.Now())

	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	if ck.Checks() == 0 {
		t.Fatal("the armed checker ran no checks")
	}
	if s.Dir.Entries() == 0 || s.l3[0].cache.Evicts == 0 || s.ports[0].l2.Evicts == 0 {
		t.Fatalf("traffic too light: %d directory entries, L3 bank 0 evicts %d, core 0 L2 evicts %d",
			s.Dir.Entries(), s.l3[0].cache.Evicts, s.ports[0].l2.Evicts)
	}
}

package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/sim"
)

func TestDirectoryStateRoundTrip(t *testing.T) {
	d, _ := newDir()
	d.ReadMiss(10, 0)
	d.ReadMiss(10, 3)
	d.WriteMiss(20, 1)
	d.ReadMiss(30, 2)
	d.WriteMiss(30, 5)
	st := d.State()
	if len(st) != 3 || st[20] != (DirEntryState{Sharers: 1 << 1, Owner: 1, Modified: true}) ||
		st[10].Sharers != 1|1<<3 || st[10].Modified {
		t.Fatalf("State = %+v", st)
	}

	r, _ := newDir()
	r.WriteMiss(99, 4) // replaced by Restore
	r.Restore(st)
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip: %+v, want %+v", got, st)
	}
	st[10] = DirEntryState{} // the restored directory owns its entries
	if got := r.Sharers(10); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("sharers of line 10 after mutating the snapshot = %v", got)
	}
	// Both directories answer the next transitions identically.
	for _, line := range []uint64{10, 20, 30, 99} {
		i1, wb1, o1 := d.WriteMiss(line, 6)
		i2, wb2, o2 := r.WriteMiss(line, 6)
		if !reflect.DeepEqual(i1, i2) || wb1 != wb2 || o1 != o2 {
			t.Errorf("WriteMiss(%d): original (%v,%v,%d), restored (%v,%v,%d)", line, i1, wb1, o1, i2, wb2, o2)
		}
	}
}

func TestDRAMStateRoundTrip(t *testing.T) {
	d, _, cfg := dramUnderTest(true)
	line := uint64(cfg.LineBytes)
	for i, l := range []uint64{0, 33, 1, 5, 33, 66} {
		d.PostAccess(uint64(10*i), l*line)
	}
	st := d.State()
	if !st[0].HasOpen || st[0].OpenRow != 1 || st[0].Res.Grants != 4 {
		t.Fatalf("bank 0 = %+v, want row 1 open after 4 accesses", st[0])
	}

	r, _, _ := dramUnderTest(true)
	r.PostAccess(0, 7*line) // replaced by Restore
	r.Restore(st)
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip: %+v, want %+v", got, st)
	}
	for _, l := range []uint64{0, 34, 66, 2} {
		if a, b := d.PostAccess(100, l*line), r.PostAccess(100, l*line); a != b {
			t.Errorf("line %d: original done at %d, restored at %d", l, a, b)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Restore accepted a bank-count mismatch")
		}
	}()
	r.Restore(st[:4])
}

// checkpointConfig is a small machine whose L3 evicts under the
// traffic of checkpointTraffic.
func checkpointConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.L3Bytes = 256 << 10
	return cfg
}

// checkpointTraffic runs four cores' loads, stores and streaming
// stores over a shared and a private region each, long enough to
// evict from every cache level and move lines between owners.
func checkpointTraffic(s *System, e *sim.Engine, seed int64, shared uint64, private []uint64) {
	for i, core := range []int{0, 1, 5, 7} {
		pt, base := s.Port(core), private[i]
		rng := rand.New(rand.NewSource(seed + int64(core)))
		e.Spawn("traffic", func(p *sim.Proc) {
			for n := 0; n < 3000; n++ {
				addr := shared + uint64(rng.Intn(512<<10))
				if rng.Intn(2) == 0 {
					addr = base + uint64(rng.Intn(96<<10))
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
}

func TestSystemCheckpointRoundTrip(t *testing.T) {
	cfg := checkpointConfig()
	s := MustNewSystem(cfg, counters.NewSet())
	shared := s.Alloc(512 << 10)
	var private []uint64
	for i := 0; i < 4; i++ {
		private = append(private, s.Alloc(96<<10))
	}
	e := sim.NewEngine()
	checkpointTraffic(s, e, 1, shared, private)
	st := s.Checkpoint()
	if len(st.Directory) == 0 || st.L3[0].Cache.Evicts == 0 || st.Ports[0].L2.Evicts == 0 {
		t.Fatalf("traffic too light to exercise the snapshot: %d directory entries, L3 bank 0 evicts %d, core 0 L2 evicts %d",
			len(st.Directory), st.L3[0].Cache.Evicts, st.Ports[0].L2.Evicts)
	}

	r := MustNewSystem(cfg, counters.NewSet())
	r.Restore(st)
	if got := r.Checkpoint(); !reflect.DeepEqual(got, st) {
		t.Fatal("Checkpoint after Restore differs from the snapshot")
	}
	if r.Alloc(64) != s.Alloc(64) {
		t.Error("restored heap cursor hands out a different address")
	}

	// The original and the restored system run the same continuation
	// to the same cycle and the same state.
	now := e.Now()
	e1, e2 := sim.NewEngineAt(now), sim.NewEngineAt(now)
	checkpointTraffic(s, e1, 2, shared, private)
	checkpointTraffic(r, e2, 2, shared, private)
	if e1.Now() != e2.Now() {
		t.Errorf("continuation ends at cycle %d on the original, %d restored", e1.Now(), e2.Now())
	}
	if !reflect.DeepEqual(s.Checkpoint(), r.Checkpoint()) {
		t.Error("continuation leaves the original and the restored system in different states")
	}

	defer func() {
		if recover() == nil {
			t.Error("Restore accepted a checkpoint from a different core count")
		}
	}()
	MustNewSystem(DefaultConfig(), counters.NewSet()).Restore(st)
}

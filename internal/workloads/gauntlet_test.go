package workloads

import (
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

func TestGauntletMembersRegistered(t *testing.T) {
	members := GauntletMembers()
	if len(members) != 4 {
		t.Fatalf("%d gauntlet members, want 4", len(members))
	}
	for _, m := range members {
		if !strings.HasPrefix(m.Name, "gauntlet/") {
			t.Errorf("member %q not under the gauntlet/ prefix", m.Name)
		}
		if m.Breaks == "" {
			t.Errorf("%s: no broken-assumption description", m.Name)
		}
		info, ok := ByName(m.Name)
		if !ok {
			t.Errorf("%s: not registered", m.Name)
			continue
		}
		m8 := machine.MustNew(machine.DefaultConfig().WithCores(8))
		w := info.Factory(m8)
		if w.Name() != m.Name {
			t.Errorf("factory built %q for member %q", w.Name(), m.Name)
		}
		if len(w.Kernels()) != 1 {
			t.Errorf("%s: %d kernels, want 1 (only the controller may react)", m.Name, len(w.Kernels()))
		}
	}
}

// TestAdversaryPatternMath checks the per-iteration pattern predicates
// against their closed-form counters: streamBlocks(it) must count the
// streaming iterations in [0, it) for awkward, non-divisible period
// parameters, and oscillate's sub-phases must alternate on HalfPeriod.
func TestAdversaryPatternMath(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	bs := NewAdversary(m, AdversaryParams{
		Kind: "busstorm", Iters: 37, Elems: 64, ComputeInstr: 2,
		StreamInstr: 1, QuietIters: 5, BurstIters: 3,
	})
	eq := NewAdversary(m, AdversaryParams{
		Kind: "eqclash", Iters: 23, Elems: 64, ComputeInstr: 2,
		StreamInstr: 1, PrefixIters: 7,
	})
	for _, w := range []*Adversary{bs, eq} {
		count := 0
		for it := 0; it <= w.p.Iters; it++ {
			if got := w.streamBlocks(it); got != count {
				t.Fatalf("%s: streamBlocks(%d) = %d, want %d streaming iterations so far", w.Name(), it, got, count)
			}
			if it < w.p.Iters && w.streamIter(it) {
				count++
			}
		}
	}

	os := NewAdversary(m, AdversaryParams{
		Kind: "oscillate", Iters: 20, Elems: 64, ComputeInstr: 2,
		MergeInstr: 4, HalfPeriod: 3,
	})
	for it := 0; it < 20; it++ {
		want := (it/3)%2 == 1
		if os.csIter(it) != want {
			t.Errorf("oscillate: csIter(%d) = %v, want %v", it, os.csIter(it), want)
		}
		if os.streamIter(it) {
			t.Errorf("oscillate: streamIter(%d) = true, oscillate never streams", it)
		}
	}
	cd := NewAdversary(m, AdversaryParams{
		Kind: "csdep", Iters: 10, Elems: 64, ComputeInstr: 2, MergeInstr: 4,
	})
	for it := 0; it < 10; it++ {
		if !cd.csIter(it) {
			t.Errorf("csdep: csIter(%d) = false, csdep merges every iteration", it)
		}
	}
}

func TestAdversaryVerifyDetectsCorruption(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	p := DefaultAdversaryParams("oscillate")
	p.Iters, p.Elems = 48, 128
	w := NewAdversary(m, p)
	core.NewController(core.Static{N: 4}).Run(m, w)
	if err := w.Verify(); err != nil {
		t.Fatalf("clean run fails verification: %v", err)
	}
	w.sum += 1
	if err := w.Verify(); err == nil {
		t.Error("corrupted reduction passed verification")
	}
}

func TestAdversaryUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown adversary kind did not panic")
		}
	}()
	NewAdversary(machine.MustNew(machine.DefaultConfig().WithCores(8)), AdversaryParams{Kind: "nosuch"})
}

// FuzzGauntlet drives every adversary generator with randomized small
// parameters through both the combined FDT pipeline and the hybrid
// controller (whose probe half-chunks produce the oddest RunChunk
// ranges any controller issues), then checks the computed reduction
// against the serial reference. The four seeds — one per member kind —
// replay in normal test runs.
func FuzzGauntlet(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), uint8(2))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(7))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(1))
	f.Add(uint8(3), uint8(7), uint8(2), uint8(4))
	kinds := []string{"oscillate", "csdep", "busstorm", "eqclash"}
	f.Fuzz(func(t *testing.T, kindSel, a, b, c uint8) {
		p := DefaultAdversaryParams(kinds[int(kindSel)%len(kinds)])
		p.Iters = 48 + 8*int(a%12)
		p.Elems = 64 + 32*int(b%6)
		p.HalfPeriod = 3 + int(c%8)
		p.QuietIters = 5 + int(c%9)
		p.BurstIters = 2 + int(a%5)
		p.PrefixIters = 4 + int(c%20)
		p.Seed = uint64(a)<<16 | uint64(b)<<8 | uint64(c)
		cfg := machine.DefaultConfig().WithCores(8)

		m := machine.MustNew(cfg)
		w := NewAdversary(m, p)
		core.NewController(core.Combined{}).Run(m, w)
		if err := w.Verify(); err != nil {
			t.Fatalf("combined: %v", err)
		}

		m2 := machine.MustNew(cfg)
		w2 := NewAdversary(m2, p)
		core.NewController(core.Hybrid{}).Run(m2, w2)
		if err := w2.Verify(); err != nil {
			t.Fatalf("hybrid: %v", err)
		}
	})
}

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

// TestSyntheticPlan checks the per-iteration plan against the spans
// for awkward, non-divisible periods: a streaming iteration's block is
// the number of streaming iterations before it, a vector iteration
// reads block -1, and merging follows its span.
func TestSyntheticPlan(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	for _, tc := range []struct {
		p      SyntheticParams
		stream func(it int) bool
		merge  func(it int) bool
	}{
		{SyntheticParams{Name: "storm", Spans: []Span{{Iters: 5}, {Iters: 3, Stream: true}}, Iters: 37},
			func(it int) bool { return it%8 >= 5 }, func(int) bool { return false }},
		{SyntheticParams{Name: "clash", Spans: []Span{{Iters: 7, Stream: true}, {Iters: 9}}, Iters: 23},
			func(it int) bool { return it%16 < 7 }, func(int) bool { return false }},
		{SyntheticParams{Name: "osc", Spans: []Span{{Iters: 3}, {Iters: 3, Merge: true}}, Iters: 20},
			func(int) bool { return false }, func(it int) bool { return (it/3)%2 == 1 }},
		{SyntheticParams{Name: "dep", Spans: []Span{{Iters: 4, Merge: true}}, Iters: 10, TeamMerge: true},
			func(int) bool { return false }, func(int) bool { return true }},
		{SyntheticParams{Name: "mixed", Spans: []Span{{Iters: 0, Stream: true}, {Iters: 2, Stream: true, Merge: true}, {Iters: 3}}, Iters: 13},
			func(it int) bool { return it%5 < 2 }, func(it int) bool { return it%5 < 2 }},
	} {
		tc.p.Elems, tc.p.ComputeInstr, tc.p.StreamInstr, tc.p.MergeInstr = 64, 2, 1, 4
		w := NewSynthetic(m, tc.p)
		if len(w.plan) != tc.p.Iters {
			t.Fatalf("%s: %d planned iterations, want %d", tc.p.Name, len(w.plan), tc.p.Iters)
		}
		streamed := 0
		for it, s := range w.plan {
			want := step{block: -1, merge: tc.merge(it)}
			if tc.stream(it) {
				want.block = streamed
				streamed++
			}
			if s != want {
				t.Errorf("%s: iteration %d plans %+v, want %+v", tc.p.Name, it, s, want)
			}
		}
	}
}

func TestAdversaryVerifyDetectsCorruption(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	p := DefaultSyntheticParams("gauntlet/oscillate")
	p.Iters, p.Elems = 48, 128
	w := NewSynthetic(m, p)
	core.NewController(core.Static{N: 4}).Run(m, w)
	if err := w.Verify(); err != nil {
		t.Fatalf("clean run fails verification: %v", err)
	}
	w.sum += 1
	if err := w.Verify(); err == nil {
		t.Error("corrupted reduction passed verification")
	}
}

func TestSyntheticEmptySpansPanics(t *testing.T) {
	for _, spans := range [][]Span{nil, {{Iters: 0}, {Iters: -2, Stream: true}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spans %v did not panic", spans)
				}
			}()
			NewSynthetic(machine.MustNew(machine.DefaultConfig().WithCores(8)), SyntheticParams{Name: "empty", Spans: spans, Iters: 4})
		}()
	}
}

// FuzzGauntlet drives every registered synthetic (the gauntlet
// members, busburst and phaseshift) with randomized small span lengths
// and sizes through both the combined FDT pipeline and the hybrid
// controller (whose probe half-chunks produce the oddest RunChunk
// ranges any controller issues), then checks the computed reduction
// against the serial reference. The seeds, one per registered
// synthetic, replay in normal test runs.
func FuzzGauntlet(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), uint8(2))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(7))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(1))
	f.Add(uint8(3), uint8(7), uint8(2), uint8(4))
	f.Add(uint8(4), uint8(1), uint8(4), uint8(9))
	f.Add(uint8(5), uint8(6), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, sel, a, b, c uint8) {
		p := DefaultSyntheticParams(synthetics[int(sel)%len(synthetics)].p.Name)
		p.Iters = 48 + 8*int(a%12)
		p.Elems = 64 + 32*int(b%6)
		for i := range p.Spans {
			p.Spans[i].Iters = 2 + (int(c)+7*i*int(a))%19
		}
		p.Seed = uint64(a)<<16 | uint64(b)<<8 | uint64(c)
		cfg := machine.DefaultConfig().WithCores(8)

		m := machine.MustNew(cfg)
		w := NewSynthetic(m, p)
		core.NewController(core.Combined{}).Run(m, w)
		if err := w.Verify(); err != nil {
			t.Fatalf("combined: %v", err)
		}

		m2 := machine.MustNew(cfg)
		w2 := NewSynthetic(m2, p)
		core.NewController(core.Hybrid{}).Run(m2, w2)
		if err := w2.Verify(); err != nil {
			t.Fatalf("hybrid: %v", err)
		}
	})
}

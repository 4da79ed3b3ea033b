//go:build go1.24

package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// sharingCase builds one workload whose input comes from
// readOnlyInput. variant v picks the params, so different v means a
// different key; build returns the instance, its shared input and
// the input's key.
type sharingCase struct {
	name  string
	build func(m *machine.Machine, v int) (w core.Workload, input, key any)
}

func sharingCases() []sharingCase {
	return []sharingCase{
		{"ed", func(m *machine.Machine, v int) (core.Workload, any, any) {
			p := EDParams{N: 16<<10 + v, Block: 1024, MulAddInstr: 4}
			w := NewED(m, p)
			return w, w.vec, p
		}},
		{"transpose", func(m *machine.Machine, v int) (core.Workload, any, any) {
			p := TransposeParams{Rows: 32 + v, Cols: 128, ElemInstr: 4}
			w := NewTranspose(m, p)
			return w, w.in, p
		}},
		{"pagemine", func(m *machine.Machine, v int) (core.Workload, any, any) {
			p := PageMineParams{Pages: 24 + v, PageBytes: 1024, WorkPerCharInstr: 2, MergePerBinInstr: 6}
			w := NewPageMine(m, p)
			return w, w.data, p
		}},
		{"gsearch", func(m *machine.Machine, v int) (core.Workload, any, any) {
			p := GSearchParams{Nodes: 400 + v, Degree: 4, Batch: 40, EvalInstr: 400, EdgeInstr: 30}
			w := NewGSearch(m, p)
			return w, w.adj, p
		}},
		{"convert", func(m *machine.Machine, v int) (core.Workload, any, any) {
			p := ConvertParams{Width: 128, Height: 24 + v, PixelInstr: 100}
			w := NewConvert(m, p)
			return w, w.in, p
		}},
	}
}

// inputHash hashes a shared input's contents.
func inputHash(t *testing.T, input any) uint64 {
	t.Helper()
	h := fnv.New64a()
	rows := []any{input}
	if adj, ok := input.([][]int32); ok {
		rows = rows[:0]
		for _, r := range adj {
			rows = append(rows, r)
		}
	}
	for _, r := range rows {
		if err := binary.Write(h, binary.LittleEndian, r); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

// TestSharedInputSharedWhileLive wants one backing array for live
// instances of the same params, across a GC in between: the helper's
// weak reference must track the array itself, which a live instance
// keeps reachable.
func TestSharedInputSharedWhileLive(t *testing.T) {
	for _, c := range sharingCases() {
		m := machine.MustNew(machine.DefaultConfig())
		a, inA, _ := c.build(m, 0)
		runtime.GC()
		b, inB, _ := c.build(m, 0)
		d, inD, _ := c.build(m, 1)
		if reflect.ValueOf(inA).Pointer() != reflect.ValueOf(inB).Pointer() {
			t.Errorf("%s: two live instances of the same params hold different inputs", c.name)
		}
		if reflect.ValueOf(inA).Pointer() == reflect.ValueOf(inD).Pointer() {
			t.Errorf("%s: instances of different params share an input", c.name)
		}
		runtime.KeepAlive(a)
		runtime.KeepAlive(b)
		runtime.KeepAlive(d)
	}
}

// TestSharedInputDroppedAndRebuilt drops every instance of a key,
// waits for the helper to forget the input, and checks that the next
// instance rebuilds the same contents from scratch.
func TestSharedInputDroppedAndRebuilt(t *testing.T) {
	for _, c := range sharingCases() {
		key, fresh := func() (any, uint64) {
			_, in, key := c.build(machine.MustNew(machine.DefaultConfig()), 2)
			return key, inputHash(t, in)
		}()
		for deadline := time.Now().Add(10 * time.Second); ; {
			runtime.GC()
			inputs.mu.Lock()
			_, held := inputs.m[key]
			inputs.mu.Unlock()
			if !held {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: input still held after every instance was dropped", c.name)
			}
			time.Sleep(time.Millisecond)
		}
		_, in, _ := c.build(machine.MustNew(machine.DefaultConfig()), 2)
		if got := inputHash(t, in); got != fresh {
			t.Errorf("%s: rebuilt input hashes %x, the first build %x", c.name, got, fresh)
		}
	}
}

// TestSharedInputNeverWritten runs each sharing workload to
// completion and wants its shared input unchanged: a workload that
// wrote its input would corrupt every other live instance.
func TestSharedInputNeverWritten(t *testing.T) {
	for _, c := range sharingCases() {
		for _, threads := range []int{1, 8} {
			m := machine.MustNew(machine.DefaultConfig())
			w, in, _ := c.build(m, 0)
			before := inputHash(t, in)
			core.NewController(core.Static{N: threads}).Run(m, w)
			if err := w.(Verifier).Verify(); err != nil {
				t.Errorf("%s at %d threads: %v", c.name, threads, err)
			}
			if inputHash(t, in) != before {
				t.Errorf("%s at %d threads: the run wrote its shared input", c.name, threads)
			}
		}
	}
}

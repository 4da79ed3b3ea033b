package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"fdt/internal/sim.(*Engine).next", "fdt/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"fdt/internal/runner.(*Cache[go.shape.struct { K fdt/internal/core.KernelResult }]).Do"}, "runner"},
		// The leaf-side runtime frames pass through a channel send: the
		// engine's baton handoff, charged to the scheduler, not to mem.
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.chansend1", "fdt/internal/sim.(*Proc).yield",
			"fdt/internal/mem.(*Port).Load"}, "runtime_sched"},
		// An allocation is charged to the layer that allocates.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "fdt/internal/mem.NewCache"}, "mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "fdt/internal/core.run"}, "runtime_gc"},
		{[]string{"runtime.nanotime1"}, "runtime_sched"},
		{[]string{"sync.(*Mutex).Lock", "fdt/internal/runner.(*Cache[...]).Do"}, "runner"},
		{[]string{"fdt/internal/store.(*Store).Get"}, "other"},
		{[]string{"encoding/json.Marshal", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":           100 * time.Millisecond,
		"runtime_sched": 390 * time.Millisecond,
		"mem":           200 * time.Millisecond,
		"workloads":     70 * time.Millisecond,
		"runtime_gc":    100 * time.Millisecond,
		"other":         140 * time.Millisecond,
	}
	for b, d := range want {
		if got[b] != d {
			t.Errorf("bucket %s = %v, want %v", b, got[b], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want exactly %v", got, want)
	}
	sh := shares(got)
	sum := 0.0
	for _, b := range shareBuckets {
		v, ok := sh[b]
		if !ok {
			t.Errorf("share %s missing", b)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
	if sh["runtime_sched"] != 39 {
		t.Errorf("runtime_sched share = %g, want 39", sh["runtime_sched"])
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	_, err := parseTraces(strings.NewReader("-----------+------\n   notaduration   fdt/internal/sim.Run\n"))
	if err == nil {
		t.Fatal("parseTraces accepted a sample line without a duration")
	}
}

package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/dispatch_order.txt")

// dispatchOrder runs the programs the golden pins — every FuzzEngine
// seed, inline and on disk, plus the contention and horizon programs —
// and renders
// each one's dispatch sequence, one "cycle process" line per event. A
// run of events that dispatch one process on consecutive cycles, such
// as a master spinning on Advance(1), folds into one "first..last
// process" line. With asOps, the programs' waits run inside Ops (see
// spawnProgram and spawnContention). It also returns the coroutine
// switches all the programs made.
func dispatchOrder(t *testing.T, asOps bool) ([]byte, uint64) {
	t.Helper()
	type program struct {
		name  string
		spawn func(e *Engine)
	}
	var progs []program
	for i, seed := range fuzzSeeds {
		progs = append(progs, program{
			name:  fmt.Sprintf("fuzz seed %d %q", i, seed),
			spawn: func(e *Engine) { spawnProgram(e, decodeProgram(seed), asOps, nil) },
		})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzEngine")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(files))
	for _, f := range files {
		names = append(names, f.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		seed := readFuzzSeed(t, filepath.Join(dir, name))
		progs = append(progs, program{
			name:  "fuzz corpus " + name,
			spawn: func(e *Engine) { spawnProgram(e, decodeProgram(seed), asOps, nil) },
		})
	}
	progs = append(progs,
		program{name: "contention", spawn: func(e *Engine) { spawnContention(e, asOps) }},
		program{name: "horizon", spawn: func(e *Engine) { spawnHorizon(e, asOps) }})

	var buf bytes.Buffer
	var switches uint64
	for _, prog := range progs {
		fmt.Fprintf(&buf, "# %s\n", prog.name)
		var run orderRun
		e := NewEngine()
		e.stepHook = func(now uint64, p *Proc) {
			if run.proc == p && now == run.last+1 {
				run.last = now
				return
			}
			run.flush(&buf)
			run = orderRun{proc: p, first: now, last: now}
		}
		prog.spawn(e)
		e.Run()
		run.flush(&buf)
		switches += e.Switches()
	}
	return buf.Bytes(), switches
}

// horizonWaits are the horizon program's wait lengths: a cycle, both
// sides of 1,024, and far beyond.
var horizonWaits = []uint64{1, 1023, 1024, 1025, 10000}

// spawnHorizon spawns processes whose waits mix short and long
// lengths. Five processes run horizonWaits twice over, each starting
// at another rotation of the list, so their waits interleave. Five
// pairs then put two events on one cycle: the first process of a pair
// queues a long wait at cycle 0, and the second later lands a wait on
// the same cycle, from a short wait or a long one. The event queued
// first runs first. With asOps, each process's waits run as one
// scriptOp.
func spawnHorizon(e *Engine, asOps bool) {
	spawn := func(name string, waits []uint64) {
		e.Spawn(name, func(p *Proc) {
			if asOps {
				script := make([]scriptWait, len(waits))
				for i, d := range waits {
					script[i] = scriptWait{d: d}
				}
				p.Do(&scriptOp{waits: script})
				return
			}
			for _, d := range waits {
				p.Advance(d)
			}
		})
	}
	n := len(horizonWaits)
	for i := 0; i < n; i++ {
		waits := make([]uint64, 0, 2*n)
		for j := 0; j < 2*n; j++ {
			waits = append(waits, horizonWaits[(i+j)%n])
		}
		spawn(fmt.Sprintf("rot%d", i), waits)
	}
	for i, pair := range [][2][]uint64{
		{{1024}, {1, 1023}},
		{{1025}, {1, 1024}},
		{{10000}, {1, 9999}},
		{{10000, 1}, {8977, 1023, 1}},
		{{10000, 1}, {8976, 1024, 1}},
	} {
		spawn(fmt.Sprintf("held%d", i), pair[0])
		spawn(fmt.Sprintf("late%d", i), pair[1])
	}
}

// orderRun is a run of dispatches of one process on consecutive cycles.
type orderRun struct {
	proc        *Proc
	first, last uint64
}

func (r orderRun) flush(buf *bytes.Buffer) {
	switch {
	case r.proc == nil:
	case r.first == r.last:
		fmt.Fprintf(buf, "%d %s\n", r.first, r.proc.name)
	default:
		fmt.Fprintf(buf, "%d..%d %s\n", r.first, r.last, r.proc.name)
	}
}

// readFuzzSeed decodes a one-value "go test fuzz v1" corpus file
// holding a []byte.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: value is not a []byte literal", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestDispatchOrderGolden pins the kernel's (t, seq) dispatch order:
// any engine change must deliver the same events to the same processes
// in the same order. Regenerate with
//
//	go test ./internal/sim -run TestDispatchOrderGolden -update-order
//
// only when the order is meant to change.
func TestDispatchOrderGolden(t *testing.T) {
	got, _ := dispatchOrder(t, false)
	path := filepath.Join("testdata", "dispatch_order.txt")
	if *updateOrder {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-order to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch order differs from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch order differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestOpDispatchOrderGolden runs the golden's programs with their waits
// inside Ops: an Op's Steps, run on whichever goroutine dispatches
// them, must deliver the same events in the same order as the waits
// made by body code, and cost no more switches.
func TestOpDispatchOrderGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "dispatch_order.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, opSwitches := dispatchOrder(t, true)
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("as Ops, dispatch order differs from the golden at line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("as Ops, dispatch order differs from the golden: %d lines, want %d", len(gl), len(wl))
	}
	_, bodySwitches := dispatchOrder(t, false)
	if opSwitches > bodySwitches {
		t.Errorf("as Ops the programs made %d switches, as body code %d", opSwitches, bodySwitches)
	}
	t.Logf("switches: %d as body code, %d as Ops", bodySwitches, opSwitches)
}

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
// seed, inline and on disk, plus the contention program — and renders
// each one's dispatch sequence, one "cycle process" line per event. A
// run of events that dispatch one process on consecutive cycles, such
// as a master spinning on Advance(1), folds into one "first..last
// process" line.
func dispatchOrder(t *testing.T) []byte {
	t.Helper()
	type program struct {
		name  string
		spawn func(e *Engine)
	}
	var progs []program
	for i, seed := range fuzzSeeds {
		progs = append(progs, program{
			name:  fmt.Sprintf("fuzz seed %d %q", i, seed),
			spawn: func(e *Engine) { spawnProgram(e, decodeProgram(seed)) },
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
			spawn: func(e *Engine) { spawnProgram(e, decodeProgram(seed)) },
		})
	}
	progs = append(progs, program{name: "contention", spawn: spawnContention})

	var buf bytes.Buffer
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
	}
	return buf.Bytes()
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
	got := dispatchOrder(t)
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

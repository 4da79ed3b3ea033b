package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// shareBuckets are the cpu_share.* metrics, in print order. Every
// profile sample lands in exactly one, so the shares sum to 100%.
var shareBuckets = []string{
	"sim", "mem", "cpu", "thread", "machine", "core", "sampled", "power",
	"counters", "workloads", "runner", "experiments",
	"runtime_sched", "runtime_gc", "other",
}

// gcFrames mark a stack as garbage-collector work wherever they
// appear: the background mark and sweep workers, and the mark assists
// an allocating goroutine is drafted into.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
	"runtime.scanobject", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

// schedFrames are the scheduler and channel functions. A sample whose
// leaf-side run of runtime frames passes through one of them is host
// time spent handing control between goroutines — in this simulator,
// mostly the engine/process baton exchange of every simulated event.
var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
	"runtime.selectgo", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.mcall", "runtime.gogo", "runtime.execute", "runtime.goexit",
	"runtime.newproc", "runtime.runq", "runtime.stealWork", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notesleep",
	"runtime.notewakeup", "runtime.futex", "runtime.usleep",
	"runtime.osyield", "runtime.procyield", "runtime.sysmon",
	"runtime.lock2", "runtime.unlock2", "runtime.casgstatus",
	"runtime.acquireSudog", "runtime.releaseSudog", "runtime.resetspinning",
}

func hasPrefixIn(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntimeFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/")
}

// bucketOf charges one sampled stack (leaf first) to a share bucket:
// GC work first, then scheduler/channel time, then the innermost
// fdt/internal/<module> frame, else "other". A stack made only of
// runtime frames (idle Ps, sysmon, goroutine start-up) is scheduler
// time.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if hasPrefixIn(f, gcFrames) {
			return "runtime_gc"
		}
	}
	allRuntime := true
	for _, f := range stack {
		if !isRuntimeFrame(f) {
			allRuntime = false
			break
		}
		if hasPrefixIn(f, schedFrames) {
			return "runtime_sched"
		}
	}
	if allRuntime && len(stack) > 0 {
		return "runtime_sched"
	}
	for _, f := range stack {
		if mod, ok := strings.CutPrefix(f, "fdt/internal/"); ok {
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, b := range shareBuckets {
				if b == mod {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces` output and returns the
// sampled time per share bucket. Each sample block starts after a
// "-----------+---" separator; its first line carries the value and
// the leaf function, the following lines the callers. Label lines
// ("key: value" before the stack) are skipped.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var (
		stack []string
		val   time.Duration
		in    bool
	)
	flush := func() {
		if len(stack) > 0 {
			out[bucketOf(stack)] += val
		}
		stack, val = nil, 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			in = true
			continue
		}
		if !in || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			if strings.HasSuffix(fields[0], ":") {
				continue // label line
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			val = d
			stack = append(stack, frameName(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))))
			continue
		}
		stack = append(stack, frameName(strings.TrimSpace(line)))
	}
	flush()
	return out, sc.Err()
}

// frameName strips pprof's " (inline)" annotation.
func frameName(s string) string {
	return strings.TrimSuffix(s, " (inline)")
}

// shares converts bucket times to percentages of their total; every
// bucket is present, zero when unsampled.
func shares(t map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range t {
		total += d
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 {
			out[b] = 100 * float64(t[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// profileBuckets runs `go tool pprof -traces` on each CPU profile and
// sums their bucket times.
func profileBuckets(paths []string) (map[string]time.Duration, error) {
	sum := map[string]time.Duration{}
	for _, p := range paths {
		cmd := exec.Command("go", "tool", "pprof", "-traces", p)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("go tool pprof: %w", err)
		}
		t, perr := parseTraces(out)
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("go tool pprof -traces %s: %w", p, err)
		}
		if perr != nil {
			return nil, perr
		}
		for b, d := range t {
			sum[b] += d
		}
	}
	return sum, nil
}

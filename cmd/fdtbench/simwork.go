package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// simCall is one experiments.RunSweepJob call: a static-thread sweep
// (Threads) or a list of policy placements (Policies) for one workload
// on one machine.
type simCall struct {
	Workload  string
	Bandwidth float64
	Threads   []int
	Policies  []string
}

// config is the call's machine: Table 1 at the call's bandwidth.
func (c simCall) config() machine.Config {
	return machine.DefaultConfig().WithBandwidth(c.Bandwidth)
}

// simWorkload is a fixed set of RunSweepJob calls that one pass runs
// one at a time, in a seeded order, in a fresh child process. The
// runner pool parallelizes the sweep points inside a call, as fdtsweep
// does; policy placements run one after another.
type simWorkload struct {
	name  string
	mode  core.Mode
	calls []simCall
}

// sweepThreads are the static thread counts each sweep-exact call
// simulates: two points per workload keep both runner workers busy
// while one pass stays near four seconds on a 2-core host.
var sweepThreads = []int{2, 8}

// samplePolicies and sampleBandwidths span policies-sampled: every
// controller family the daemon serves, on the three bandwidths of the
// paper's Fig. 13. Workload j of Table 2 runs at bandwidth j mod 3, so
// one pass covers each bandwidth with four workloads in about five
// seconds on a 2-core host.
var (
	samplePolicies   = []string{"sat", "bat", "sat+bat", "adaptive"}
	sampleBandwidths = []float64{0.5, 1, 2}
)

func sweepExact() simWorkload {
	w := simWorkload{name: "sweep-exact", mode: core.ExactMode()}
	for _, info := range workloads.All() {
		w.calls = append(w.calls, simCall{Workload: info.Name, Bandwidth: 1, Threads: sweepThreads})
	}
	return w
}

func policiesSampled() simWorkload {
	w := simWorkload{name: "policies-sampled", mode: core.SampledMode()}
	for j, info := range workloads.All() {
		bw := sampleBandwidths[j%len(sampleBandwidths)]
		w.calls = append(w.calls, simCall{Workload: info.Name, Bandwidth: bw, Policies: samplePolicies})
	}
	return w
}

func simWorkloadByName(name string) (simWorkload, bool) {
	switch name {
	case "sweep-exact":
		return sweepExact(), true
	case "policies-sampled":
		return policiesSampled(), true
	}
	return simWorkload{}, false
}

// ops is the number of simulated runs one pass performs.
func (w simWorkload) ops() int {
	n := 0
	for _, c := range w.calls {
		n += len(c.Threads) + len(c.Policies)
	}
	return n
}

// order is the seeded call order of one pass: the same (seed, pass)
// always gives the same permutation.
func order(seed uint64, stream uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, stream)).Perm(n)
}

// Sampled-mode accuracy gates, in percent of the exact TotalCycles.
// maxPlacementErrPct sits above the worst placement measured when the
// goldens were written (12.1%, bt under SAT at bandwidth 1);
// meanErrSlackPct is the regression allowed on the mean error recorded
// with them.
const (
	maxPlacementErrPct = 15
	meanErrSlackPct    = 0.1
)

// passReport is what a child process reports for one pass.
type passReport struct {
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	LatMs    []float64 `json:"lat_ms"`
	Ops      int       `json:"ops"`
	Failures []string  `json:"failures,omitempty"`
	// Per-layer counts for the pass.
	AllocMB      float64   `json:"alloc_mb"`
	GCCycles     float64   `json:"gc_cycles"`
	Computes     float64   `json:"computes"`
	CacheHits    float64   `json:"cache_hits"`
	ErrPct       []float64 `json:"err_pct,omitempty"`
	SkippedIters float64   `json:"skipped_iters"`
	SampledIters float64   `json:"sampled_iters"`
	TrainIters   float64   `json:"train_iters"`
	Retrains     float64   `json:"retrains"`
	JobSMax      float64   `json:"job_s_max"`
	Spans        []span    `json:"spans,omitempty"`
}

// runSimPass runs one pass of w in this process, in the given call
// order, and checks every result against gold (nil skips the checks).
// The run cache is reset first, so every run simulates. record keeps
// a span per call and per run.
func runSimPass(w simWorkload, ord []int, gold *simGoldens, record bool) passReport {
	core.ResetRunCache()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()

	var (
		mu  sync.Mutex // Progress runs on the runner's worker goroutines
		rep passReport
	)
	for _, ci := range ord {
		c := w.calls[ci]
		o := experiments.Options{Cfg: c.config(), Mode: w.mode}
		t0 := time.Now()
		last := t0
		// Sweep points start together on the runner workers, so each
		// one's latency runs from the call's start; policy placements
		// run one after another, so each one's runs from the previous.
		o.Progress = func(ev experiments.ProgressEvent) {
			now := time.Now()
			from := t0
			if ev.Threads == 0 {
				from, last = last, now
			}
			mu.Lock()
			rep.LatMs = append(rep.LatMs, ms(now.Sub(from)))
			if record {
				rep.Spans = append(rep.Spans, span{Name: ev.Workload + " " + ev.Policy, Track: ci,
					Start: from.UnixNano(), End: now.UnixNano()})
			}
			mu.Unlock()
		}
		res, err := experiments.RunSweepJob(o, c.Workload, c.Threads, c.Policies)
		end := time.Now()
		rep.JobSMax = math.Max(rep.JobSMax, end.Sub(t0).Seconds())
		if record {
			rep.Spans = append(rep.Spans, span{Name: fmt.Sprintf("RunSweepJob %s bw=%g", c.Workload, c.Bandwidth),
				Track: ci, Start: t0.UnixNano(), End: end.UnixNano()})
		}
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", c.Workload, err))
			continue
		}
		for i, r := range res.Sweep {
			rep.Ops++
			if gold != nil {
				if msg := gold.checkPoint(c.Workload, c.Threads[i], r); msg != "" {
					rep.Failures = append(rep.Failures, msg)
				}
			}
		}
		for i, r := range res.Policies {
			rep.Ops++
			for _, k := range r.Kernels {
				rep.TrainIters += float64(k.TrainIters)
				rep.Retrains += float64(k.Retrains)
			}
			if r.Sampled != nil {
				rep.SkippedIters += float64(r.Sampled.SkippedIters)
				rep.SampledIters += float64(r.Sampled.SkippedIters + r.Sampled.DetailedIters)
			}
			if gold != nil {
				e, msg := gold.checkPlacement(c.Workload, c.Bandwidth, c.Policies[i], r)
				if msg != "" {
					rep.Failures = append(rep.Failures, msg)
				}
				rep.ErrPct = append(rep.ErrPct, e)
			}
		}
	}

	rep.WallS = time.Since(start).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	rep.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.GCCycles = float64(ms1.NumGC - ms0.NumGC)
	hits, _ := core.RunCacheStats()
	rep.CacheHits = float64(hits)
	rep.Computes = float64(core.RunCacheComputes())
	if gold != nil && len(rep.ErrPct) > 0 && len(gold.exactRef) > 0 {
		if m := mean(rep.ErrPct); m > gold.meanErrPct+meanErrSlackPct {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"sampled mean cycle error %.3f%% exceeds the recorded %.3f%% + %.1f points", m, gold.meanErrPct, meanErrSlackPct))
		}
	}
	return rep
}

// warmUp runs one small untimed simulation so a pass starts with the
// code paged in and the heap sized, then empties the run cache.
func warmUp() {
	experiments.RunSweepJob(experiments.Options{Cfg: machine.DefaultConfig()}, "mtwister", []int{1}, nil)
	core.ResetRunCache()
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

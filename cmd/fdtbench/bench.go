package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workloadNames lists the benchmark's workloads; README.md says why
// each one was chosen.
var workloadNames = []string{"sweep-exact", "policies-sampled", "daemon-cold", "daemon-warm"}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the simulator or the daemon sees;
// every workload reports all of them on untraced runs.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of traced runs. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var layerMetrics = func() []metricDef {
	var out []metricDef
	for _, b := range shareBuckets {
		out = append(out, metricDef{"cpu_share." + b, "%"})
	}
	return append(out, []metricDef{
		{"runner.parallel_eff", "ratio"},
		{"runner.computes", "count"},
		{"runner.cache_hits", "count"},
		{"experiments.job_s_max", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"sampled.skipped_pct", "%"},
		{"sampled.cycle_err_pct", "%"},
		{"sampled.cycle_err_max_pct", "%"},
		{"core.train_iters", "count"},
		{"core.retrains", "count"},
		{"service.submit_ms.p50", "ms"},
		{"service.submit_ms.p90", "ms"},
		{"service.queue_ms.p50", "ms"},
		{"service.queue_ms.p90", "ms"},
		{"service.exec_ms.p50", "ms"},
		{"service.exec_ms.p90", "ms"},
		{"service.dedup_frac", "ratio"},
		{"service.rss_growth_mb", "MB"},
		{"store.hits", "count"},
		{"store.puts", "count"},
		{"store.bytes", "bytes"},
		{"latency.samples", "count"},
		{"latency.tail_pct", "%"},
		{"latency.tail_ms", "ms"},
		{"trace_overhead_pct", "%"},
		{"host.calibration_ms", "ms"},
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_s.ed8", "1/s"},
		{"mem.ns_per_load.l1", "ns"},
		{"mem.ns_per_load.dram", "ns"},
		{"thread.ns_per_barrier.t8", "ns"},
		{"thread.ns_per_critical.t8", "ns"},
		{"thread.us_per_fork.t32", "us"},
		{"machine.build_ms", "ms"},
		{"workloads.factory_ms", "ms"},
		{"store.put_us", "us"},
		{"store.get_us", "us"},
		{"store.miss_us", "us"},
		{"runner.cache_hit_us", "us"},
		{"experiments.sweep_hit_ms", "ms"},
	}...)
}()

const (
	// hostWorkers is the benchmark's parallelism: runner workers, fdtd
	// job workers and clients alike, sized to a 2-core host.
	hostWorkers = 2
	// minSetups is how many set-ups a run times at least; setup_s is
	// their median.
	minSetups = 5
)

// env is one benchmark invocation's configuration.
type env struct {
	root, work, self, fdtd string
	seed                   uint64
	seconds                float64
	trace                  bool
}

// measurement collects what the passes of one workload measured.
type measurement struct {
	// cals holds one calibration kernel time per pass.
	cals               []float64
	setups, rss, lat   []float64
	walls, tracedWalls []float64
	// rates holds each untraced pass's operations per second.
	rates     []float64
	attempted int
	failures  []string
	// layer holds one sample per pass for each per-layer metric.
	layer    map[string][]float64
	profiles []string
	spans    []span
}

func (m *measurement) add(name string, v float64) {
	if m.layer == nil {
		m.layer = map[string][]float64{}
	}
	m.layer[name] = append(m.layer[name], v)
}

// passLoop runs whole passes until the run has measured e.seconds
// (and, when tracing, at least one traced pass), alternating untraced
// and traced passes on traced runs. Each pass is preceded by one
// calibration.
func passLoop(ctx context.Context, e *env, m *measurement, pass func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start).Seconds() >= e.seconds && (!e.trace || len(m.tracedWalls) > 0) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		m.cals = append(m.cals, calibrate())
		if err := pass(i, e.trace && i%2 == 1); err != nil {
			return err
		}
	}
}

// childRun is one finished child process.
type childRun struct {
	setupS float64
	peakMB float64
	out    []byte
}

// runChild runs this binary in child mode. The child prints "ready"
// once set up, then at most one result line; setupS is exec to ready.
func runChild(ctx context.Context, self string, args ...string) (childRun, error) {
	var r childRun
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("child %v: %w", args, err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	ready := sc.Scan() && sc.Text() == "ready"
	r.setupS = time.Since(t0).Seconds()
	if ready && sc.Scan() {
		r.out = slices.Clone(sc.Bytes())
	}
	io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakMB = float64(ru.Maxrss) / 1024
	}
	switch {
	case werr != nil:
		return r, fmt.Errorf("child %v: %w", args, werr)
	case !ready:
		return r, fmt.Errorf("child %v: exited before ready", args)
	}
	return r, nil
}

// measureSim runs a sim workload's passes, each in a fresh child.
func measureSim(ctx context.Context, e *env, w simWorkload) (*measurement, error) {
	m := &measurement{}
	err := passLoop(ctx, e, m, func(i int, traced bool) error {
		args := []string{"-child", w.name, "-seed", strconv.FormatUint(e.seed, 10), "-pass", strconv.Itoa(i)}
		prof := filepath.Join(e.work, fmt.Sprintf("%s-%d.pprof", w.name, i))
		if traced {
			args = append(args, "-cpuprofile", prof)
		}
		c, err := runChild(ctx, e.self, args...)
		if err != nil {
			return err
		}
		var rep passReport
		if err := json.Unmarshal(c.out, &rep); err != nil {
			return fmt.Errorf("%s pass %d: %w", w.name, i, err)
		}
		m.setups = append(m.setups, c.setupS)
		m.rss = append(m.rss, c.peakMB)
		m.lat = append(m.lat, rep.LatMs...)
		m.attempted += w.ops()
		m.failures = append(m.failures, rep.Failures...)
		if traced {
			m.tracedWalls = append(m.tracedWalls, rep.WallS)
			m.profiles = append(m.profiles, prof)
			m.spans = append(m.spans, rep.Spans...)
		} else {
			m.walls = append(m.walls, rep.WallS)
			m.rates = append(m.rates, float64(rep.Ops)/rep.WallS)
		}
		m.add("runner.parallel_eff", rep.CPUS/(rep.WallS*hostWorkers))
		m.add("runner.computes", rep.Computes)
		m.add("runner.cache_hits", rep.CacheHits)
		m.add("experiments.job_s_max", rep.JobSMax)
		m.add("runtime.alloc_mb", rep.AllocMB)
		m.add("runtime.gc_cycles", rep.GCCycles)
		m.add("core.train_iters", rep.TrainIters)
		m.add("core.retrains", rep.Retrains)
		if rep.SampledIters > 0 {
			m.add("sampled.skipped_pct", 100*rep.SkippedIters/rep.SampledIters)
		}
		if len(rep.ErrPct) > 0 {
			m.add("sampled.cycle_err_pct", mean(rep.ErrPct))
			m.add("sampled.cycle_err_max_pct", slices.Max(rep.ErrPct))
		}
		return nil
	})
	for err == nil && len(m.setups) < minSetups {
		var c childRun
		c, err = runChild(ctx, e.self, "-child", w.name, "-pass", "-1")
		m.setups = append(m.setups, c.setupS)
	}
	return m, err
}

// measureDaemon runs a daemon workload's passes, each against a fresh
// fdtd process.
func measureDaemon(ctx context.Context, e *env, p daemonPlan) (*measurement, error) {
	gold, err := loadDaemonGoldens()
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	warmDir := filepath.Join(e.work, p.name+"-store")
	storeFor := func(i int) string {
		if p.warm {
			return warmDir
		}
		return filepath.Join(e.work, fmt.Sprintf("%s-store-%d", p.name, i))
	}
	var extra []string
	if p.warm {
		// Fill the store the warm passes restart on with one untimed
		// cold pass; its results are checked like any other.
		extra = []string{"-cache-limit", strconv.Itoa(p.cacheLimit)}
		cold := daemonCold()
		res, err := withDaemon(ctx, e.fdtd, warmDir, nil, func(d *daemonProc) (daemonPassResult, error) {
			return runDaemonPass(ctx, d.base, cold, cold.clientSequences(e.seed, 1<<32), gold, false)
		})
		if err != nil {
			return nil, err
		}
		m.attempted += res.attempted
		m.failures = append(m.failures, res.failures...)
	}
	err = passLoop(ctx, e, m, func(i int, traced bool) error {
		dir := storeFor(i)
		if !p.warm {
			defer os.RemoveAll(dir)
		}
		var d *daemonProc
		res, err := withDaemon(ctx, e.fdtd, dir, extra, func(dp *daemonProc) (daemonPassResult, error) {
			d = dp
			return runDaemonPass(ctx, d.base, p, p.clientSequences(e.seed, uint64(i)), gold, traced)
		})
		if err != nil {
			return err
		}
		m.setups = append(m.setups, d.setupS)
		m.rss = append(m.rss, res.peakMB)
		m.lat = append(m.lat, res.latMs...)
		m.attempted += res.attempted
		m.failures = append(m.failures, res.failures...)
		if traced {
			m.tracedWalls = append(m.tracedWalls, res.wallS)
			m.spans = append(m.spans, res.spans...)
		} else {
			m.walls = append(m.walls, res.wallS)
			m.rates = append(m.rates, float64(len(res.latMs))/res.wallS)
		}
		computes := float64(res.after.CacheComputes - res.before.CacheComputes)
		if p.warm && computes > 0 {
			m.failures = append(m.failures, fmt.Sprintf(
				"warm pass %d simulated %.0f runs; a warm daemon serves every request from memory or its store", i, computes))
		}
		m.add("runner.computes", computes)
		m.add("runner.cache_hits", float64(res.after.CacheHits-res.before.CacheHits))
		m.add("runner.parallel_eff", res.cpuS/(res.lifeS*hostWorkers))
		m.add("experiments.job_s_max", percentile(res.latMs, 100)/1e3)
		m.add("service.submit_ms.p50", percentile(res.submitMs, 50))
		m.add("service.submit_ms.p90", percentile(res.submitMs, 90))
		m.add("service.queue_ms.p50", percentile(res.queueMs, 50))
		m.add("service.queue_ms.p90", percentile(res.queueMs, 90))
		m.add("service.exec_ms.p50", percentile(res.execMs, 50))
		m.add("service.exec_ms.p90", percentile(res.execMs, 90))
		if res.attempted > 0 {
			m.add("service.dedup_frac", 1-computes/float64(res.attempted))
		}
		m.add("service.rss_growth_mb", res.peakMB-d.rss0MB)
		m.add("store.hits", float64(res.after.Store.Hits-res.before.Store.Hits))
		m.add("store.puts", float64(res.after.Store.Puts-res.before.Store.Puts))
		m.add("store.bytes", float64(res.after.StoreBytes-res.before.StoreBytes))
		return nil
	})
	for i := 0; err == nil && len(m.setups) < minSetups; i++ {
		dir := storeFor(1000 + i)
		_, err = withDaemon(ctx, e.fdtd, dir, extra, func(d *daemonProc) (daemonPassResult, error) {
			m.setups = append(m.setups, d.setupS)
			return daemonPassResult{}, nil
		})
		if !p.warm {
			os.RemoveAll(dir)
		}
	}
	return m, err
}

// withDaemon starts fdtd on storeDir, runs body against it, stops it
// and adds its peak RSS, CPU time and lifetime to the result.
func withDaemon(ctx context.Context, bin, storeDir string, extra []string, body func(*daemonProc) (daemonPassResult, error)) (daemonPassResult, error) {
	d, err := startDaemon(ctx, bin, storeDir, extra...)
	if err != nil {
		return daemonPassResult{}, err
	}
	res, berr := body(d)
	res.peakMB, res.cpuS, err = d.stop()
	res.lifeS = time.Since(d.started).Seconds()
	return res, errors.Join(berr, err)
}

// hostScale is the factor that converts this run's times to
// reference-host speed (see calibrate.go).
func (m *measurement) hostScale() float64 {
	if c := median(m.cals); c > 0 {
		return referenceCalS / c
	}
	return 1
}

// endToEnd computes the end-to-end metrics of one workload, with times
// at reference-host speed.
func endToEnd(m *measurement) map[string]float64 {
	f := m.hostScale()
	return map[string]float64{
		"setup_s":        median(m.setups) * f,
		"ops_per_s":      median(m.rates) / f,
		"latency_p50_ms": percentile(m.lat, 50) * f,
		"latency_p90_ms": percentile(m.lat, 90) * f,
		"peak_rss_mb":    median(m.rss),
	}
}

// perLayer computes the per-layer metrics of one traced workload from
// its pass samples, CPU-profile shares and probe results. Unreached
// layers read 0.
func perLayer(m *measurement, cpuShares, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range layerMetrics {
		out[d.name] = 0
	}
	for name, xs := range m.layer {
		out[name] = median(xs)
	}
	for b, v := range cpuShares {
		out["cpu_share."+b] = v
	}
	for name, v := range probes {
		out[name] = v
	}
	p, v, n := tailPercentile(m.lat)
	out["latency.samples"] = float64(n)
	out["latency.tail_pct"] = p
	out["latency.tail_ms"] = v
	if u, t := median(m.walls), median(m.tracedWalls); u > 0 && t > 0 {
		out["trace_overhead_pct"] = 100 * (t/u - 1)
	}
	out["host.calibration_ms"] = 1e3 * median(m.cals)
	return out
}

package core

import (
	"fmt"
	"reflect"
	"testing"

	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// This file pins the pipeline refactor to the seed controller:
// seedRunKernel below is the pre-pipeline runKernel, kept verbatim as
// a reference implementation. With monitoring disabled, the staged
// Sample -> Estimate -> Execute pipeline must reproduce its behaviour
// bit for bit — same chunk sequence, same decisions, same cycles.

// seedRun is the seed controller's Run loop over seedRunKernel.
func seedRun(ctl *Controller, m *machine.Machine, w Workload) RunResult {
	res := RunResult{Workload: w.Name(), Policy: ctl.Policy.Name()}
	thread.Run(m, func(c *thread.Ctx) {
		if sw, ok := w.(SetupWorkload); ok {
			sw.Setup(c)
		}
		for _, k := range w.Kernels() {
			res.Kernels = append(res.Kernels, seedRunKernel(ctl, c, k))
		}
	})
	res.TotalCycles = m.Eng.Now()
	res.AvgActiveCores = m.Power.AverageActiveCores(res.TotalCycles)
	res.BusBusyCycles = m.Ctrs.Counter(counters.BusBusyCycles).Read()
	return res
}

// seedRunKernel is the seed's monolithic training/estimation/execution
// flow, copied unchanged (modulo being a free function).
func seedRunKernel(ctl *Controller, c *thread.Ctx, k Kernel) KernelResult {
	m := c.Machine()
	cores := m.Contexts()
	n := k.Iterations()
	start := c.CPU.CycleCount()
	pol := ctl.Policy.(Model)

	if !pol.NeedsTraining() || n < ctl.Params.MinIterations {
		d := Decision{Threads: pol.StaticThreads(cores)}
		if n > 0 {
			k.RunChunk(c, d.Threads, 0, n)
		}
		return KernelResult{
			Kernel:   k.Name(),
			Decision: d,
			Cycles:   c.CPU.CycleCount() - start,
		}
	}

	maxTrain := int(float64(n) * ctl.Params.MaxTrainFraction)
	if maxTrain < 2 {
		maxTrain = 2
	}
	if maxTrain > n {
		maxTrain = n
	}

	csCtr := m.Ctrs.Counter(thread.CtrCSCycles)
	busCtr := m.Ctrs.Counter(counters.BusBusyCycles)

	var tr TrainResult
	var ratios []float64
	type iterSample struct{ dt, dcs, db uint64 }
	var samples []iterSample
	satDone := !pol.WantsSAT()
	batDone := !pol.WantsBAT()

	iter := 0
	for iter < maxTrain && !(satDone && batDone) {
		t0 := c.CPU.CycleCount()
		cs0 := csCtr.Sample()
		b0 := busCtr.Sample()
		k.RunChunk(c, 1, iter, iter+1)
		iter++
		dt := c.CPU.CycleCount() - t0
		dcs := csCtr.DeltaSince(cs0)
		db := busCtr.DeltaSince(b0)
		tr.TotalCycles += dt
		tr.CSCycles += dcs
		tr.BusBusyCycles += db
		samples = append(samples, iterSample{dt, dcs, db})

		if !satDone {
			ratios = append(ratios, csRatio(dt, dcs))
			if stableWindow(ratios, ctl.Params.StabilityWindow, ctl.Params.StabilityTol) {
				satDone = true
				tr.SATStable = true
			}
		}
		if !batDone && tr.TotalCycles >= ctl.Params.BATEarlyOutCycles && len(samples) >= 2 {
			var wt, wb uint64
			for _, s := range samples[1:] {
				wt += s.dt
				wb += s.db
			}
			if wt > 0 && float64(wb)/float64(wt)*float64(cores) < 1 {
				batDone = true
				tr.BWExcluded = true
			}
		}
	}
	tr.Iters = iter

	if len(samples) > 1 {
		est := samples[1:]
		if w := ctl.Params.StabilityWindow; w > 0 && len(est) > w {
			est = est[len(est)-w:]
		}
		var wt, wcs, wb uint64
		for _, s := range est {
			wt += s.dt
			wcs += s.dcs
			wb += s.db
		}
		if wt > 0 {
			tr.TotalCycles, tr.CSCycles, tr.BusBusyCycles = wt, wcs, wb
		}
	}

	d := pol.Estimate(tr, cores)
	trainCycles := c.CPU.CycleCount() - start
	if iter < n {
		k.RunChunk(c, d.Threads, iter, n)
	}
	return KernelResult{
		Kernel:      k.Name(),
		Decision:    d,
		TrainIters:  iter,
		TrainCycles: trainCycles,
		Cycles:      c.CPU.CycleCount() - start,
	}
}

// TestPipelineReproducesSeedController sweeps synthetic kernels across
// the policy and shape space and demands the monitoring-disabled
// pipeline match the seed reference exactly: identical RunResult
// (decisions, cycle counts, power) and the identical RunChunk call
// sequence — the property that makes every train-once figure
// bit-identical across the refactor.
func TestPipelineReproducesSeedController(t *testing.T) {
	policies := []Policy{SAT{}, BAT{}, Combined{}, Static{N: 5}, Static{}}
	shapes := []struct {
		iters    int
		compute  uint64
		cs       uint64
		memLines int
	}{
		{5, 1000, 0, 0},     // below MinIterations: static fallback
		{10, 1000, 50, 0},   // tiny kernel, trains at floor
		{400, 800, 40, 0},   // CS-limited
		{400, 500, 0, 24},   // bandwidth-limited
		{1000, 900, 5, 4},   // mixed, mild
		{2000, 200, 0, 0},   // scalable, fast iterations
		{64, 12000, 600, 8}, // slow iterations, CS + bus
	}
	for _, pol := range policies {
		for _, sh := range shapes {
			name := fmt.Sprintf("%s/it%d-c%d-cs%d-m%d", pol.Name(), sh.iters, sh.compute, sh.cs, sh.memLines)
			f := newSynthFactory(sh.iters, sh.compute, sh.cs, sh.memLines)

			mSeed := machine.MustNew(machine.DefaultConfig())
			wSeed := f(mSeed)
			rSeed := seedRun(NewController(pol), mSeed, wSeed)

			mNew := machine.MustNew(machine.DefaultConfig())
			wNew := f(mNew)
			rNew := NewController(pol).Run(mNew, wNew)

			if !reflect.DeepEqual(rSeed, rNew) {
				t.Errorf("%s: results diverge\nseed: %+v\npipe: %+v", name, rSeed, rNew)
			}
			kSeed := wSeed.Kernels()[0].(*synthKernel)
			kNew := wNew.Kernels()[0].(*synthKernel)
			if !reflect.DeepEqual(kSeed.chunkTeams, kNew.chunkTeams) ||
				!reflect.DeepEqual(kSeed.ranges, kNew.ranges) {
				t.Errorf("%s: chunk sequences diverge\nseed: %v %v\npipe: %v %v",
					name, kSeed.chunkTeams, kSeed.ranges, kNew.chunkTeams, kNew.ranges)
			}
		}
	}
}

func TestCSRatioEdgeCases(t *testing.T) {
	cases := []struct {
		total, cs uint64
		want      float64
	}{
		{100, 20, 0.25}, // 20 / 80
		{100, 100, 1},   // cs == total: all time in the CS
		{100, 150, 1},   // cs > total (counter skew): clamp, don't blow up
		{0, 0, 1},       // degenerate zero-cycle iteration
		{100, 0, 0},     // no critical section
		{1, 0, 0},
	}
	for _, c := range cases {
		if got := csRatio(c.total, c.cs); got != c.want {
			t.Errorf("csRatio(%d, %d) = %v, want %v", c.total, c.cs, got, c.want)
		}
	}
}

func TestStableWindowEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		ratios []float64
		w      int
		tol    float64
		want   bool
	}{
		{"window longer than samples", []float64{1, 1}, 3, 0.05, false},
		{"w=0 never stabilizes", []float64{1, 1, 1, 1}, 0, 0.05, false},
		{"w=1 never stabilizes", []float64{1, 1, 1, 1}, 1, 0.05, false},
		{"all-zero window is stable", []float64{0.5, 0, 0, 0}, 3, 0.05, true},
		{"agreeing window", []float64{9, 1.00, 1.02, 0.99}, 3, 0.05, true},
		{"spread beyond tol", []float64{1.0, 1.2, 1.0}, 3, 0.05, false},
		{"only trailing window judged", []float64{50, 2, 2, 2}, 3, 0.05, true},
		{"zero among nonzero busts the spread", []float64{0, 1, 1}, 3, 0.05, false},
	}
	for _, c := range cases {
		if got := stableWindow(c.ratios, c.w, c.tol); got != c.want {
			t.Errorf("%s: stableWindow(%v, %d, %v) = %v, want %v",
				c.name, c.ratios, c.w, c.tol, got, c.want)
		}
	}
}

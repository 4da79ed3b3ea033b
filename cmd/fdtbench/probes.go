package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/sim"
	"fdt/internal/store"
	"fdt/internal/thread"
	"fdt/internal/workloads"
)

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 3

// runProbes times each layer from outside through its public API,
// with nothing else running, and returns the per-layer probe metrics.
// dir is scratch space for the store probe.
func runProbes(dir string) (map[string]float64, error) {
	out := map[string]float64{}
	rep := func(name string, f func() float64) {
		xs := make([]float64, probeReps)
		for i := range xs {
			xs[i] = f()
		}
		out[name] = median(xs)
	}
	cfg := machine.DefaultConfig()

	rep("sim.ns_per_event", func() float64 { return probeEngine(100_000) })
	rep("sim.events_per_s.ed8", func() float64 {
		info, _ := workloads.ByName("ed")
		m := machine.MustNew(cfg)
		t0 := time.Now()
		core.NewController(core.Static{N: 8}).Run(m, info.Factory(m))
		return float64(m.Eng.Events()) / time.Since(t0).Seconds()
	})
	rep("mem.ns_per_load.l1", func() float64 { return probeLoads(cfg, 200_000, false) })
	rep("mem.ns_per_load.dram", func() float64 { return probeLoads(cfg, 20_000, true) })
	rep("thread.ns_per_barrier.t8", func() float64 {
		const n = 20_000
		var b thread.Barrier
		return perOp(n, func(m *machine.Machine) {
			thread.Run(m, func(c *thread.Ctx) {
				c.Fork(8, func(tc *thread.Ctx) {
					for i := 0; i < n; i++ {
						tc.Barrier(&b)
					}
				})
			})
		})
	})
	rep("thread.ns_per_critical.t8", func() float64 {
		const n = 40_000
		return perOp(n, func(m *machine.Machine) {
			l := thread.NewLock(m)
			thread.Run(m, func(c *thread.Ctx) {
				c.Fork(8, func(tc *thread.Ctx) {
					for i := 0; i < n/8; i++ {
						tc.Critical(l, func() { tc.Compute(20) })
					}
				})
			})
		})
	})
	rep("thread.us_per_fork.t32", func() float64 {
		const n = 300
		return perOp(n, func(m *machine.Machine) {
			thread.Run(m, func(c *thread.Ctx) {
				for i := 0; i < n; i++ {
					c.Fork(32, func(tc *thread.Ctx) { tc.Compute(100) })
				}
			})
		}) / 1e3
	})
	rep("machine.build_ms", func() float64 {
		const n = 20
		t0 := time.Now()
		for i := 0; i < n; i++ {
			machine.MustNew(cfg)
		}
		return ms(time.Since(t0)) / n
	})
	rep("workloads.factory_ms", func() float64 {
		var d time.Duration
		all := workloads.All()
		for _, info := range all {
			m := machine.MustNew(cfg)
			t0 := time.Now()
			info.Factory(m)
			d += time.Since(t0)
		}
		return ms(d) / float64(len(all))
	})

	st, err := store.Open(filepath.Join(dir, "probe-store"), core.RunStoreSchema)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 750) // the mean entry payload fdtd writes for the daemon specs
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	round := 0
	var putErr error
	rep("store.put_us", func() float64 {
		round++
		const n = 100
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := st.Put(fmt.Sprintf("probe/%d/%d", round, i), payload); err != nil {
				putErr = err
			}
		}
		return float64(time.Since(t0).Microseconds()) / n
	})
	if putErr != nil {
		return nil, putErr
	}
	rep("store.get_us", func() float64 {
		const n = 100
		t0 := time.Now()
		for i := 0; i < n; i++ {
			st.Get(fmt.Sprintf("probe/1/%d", i))
		}
		return float64(time.Since(t0).Microseconds()) / n
	})
	rep("store.miss_us", func() float64 {
		const n = 1000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			st.Get(fmt.Sprintf("absent/%d", i))
		}
		return float64(time.Since(t0).Microseconds()) / n
	})
	if err := os.RemoveAll(st.Dir()); err != nil {
		return nil, err
	}

	core.ResetRunCache()
	mtw, _ := workloads.ByName("mtwister")
	core.RunPolicyKeyed(cfg, "mtwister", mtw.Factory, core.Static{N: 2})
	rep("runner.cache_hit_us", func() float64 {
		const n = 100_000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			core.RunPolicyKeyed(cfg, "mtwister", mtw.Factory, core.Static{N: 2})
		}
		return float64(time.Since(t0).Nanoseconds()) / n / 1e3
	})
	o := experiments.Options{Cfg: cfg}
	fast := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32}
	if _, err := experiments.RunSweepJob(o, "mtwister", fast, nil); err != nil {
		return nil, err
	}
	rep("experiments.sweep_hit_ms", func() float64 {
		const n = 2000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			experiments.RunSweepJob(o, "mtwister", fast, nil)
		}
		return ms(time.Since(t0)) / n
	})
	core.ResetRunCache()
	return out, nil
}

// probeEngine ping-pongs two processes on a bare engine — one
// Advance, Wake and Park per round — and returns host ns per
// dispatched event.
func probeEngine(n int) float64 {
	eng := sim.NewEngine()
	b := eng.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
		}
	})
	eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
			p.Wake(b)
		}
	})
	t0 := time.Now()
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.Events())
}

// probeLoads drives n loads from one process through core 0's memory
// port: the same line (L1 hits) or lines scattered over 64 MB, far
// beyond the caches (DRAM), and returns host ns per load.
func probeLoads(cfg machine.Config, n int, scattered bool) float64 {
	m := machine.MustNew(cfg)
	const region = 64 << 20
	base := m.Alloc(region)
	port := m.Mem.Port(0)
	line := uint64(port.LineBytes())
	rng := rand.New(rand.NewPCG(1, 2))
	m.Eng.Spawn("loader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			addr := base
			if scattered {
				addr += uint64(rng.IntN(region/int(line))) * line
			}
			port.Load(p, addr)
		}
	})
	t0 := time.Now()
	m.Eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// perOp runs body on a fresh Table-1 machine and returns host ns per
// one of its n operations.
func perOp(n int, body func(m *machine.Machine)) float64 {
	m := machine.MustNew(machine.DefaultConfig())
	t0 := time.Now()
	body(m)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

package core

import (
	"testing"

	"fdt/internal/machine"
	"fdt/internal/sampled"
	"fdt/internal/thread"
)

// exactOnlyKernel marks a synthKernel as ExactOnlyKernel.
type exactOnlyKernel struct {
	*synthKernel
	exact bool
}

func (k exactOnlyKernel) SampleExactOnly() bool { return k.exact }

// TestExecuteSampledKeepsExactOnlyKernelsDetailed runs a steady kernel
// through ExecuteSampled with and without a monitor. Marked exact-only,
// every iteration runs in detail, in interval chunks when monitored;
// unmarked, the same kernel fast-forwards, so the marker is what keeps
// it detailed.
func TestExecuteSampledKeepsExactOnlyKernelsDetailed(t *testing.T) {
	const iters, threads = 1200, 4
	run := func(exact, monitored bool) (sampled.Stats, *synthKernel) {
		m := machine.MustNew(machine.DefaultConfig().WithCores(8))
		k := exactOnlyKernel{&synthKernel{name: "exact-only", iters: iters, computeCycles: 6400}, exact}
		var st sampled.Stats
		thread.Run(m, func(c *thread.Ctx) {
			var mo *Monitor
			if monitored {
				mo = NewMonitor(DefaultMonitorParams(), SteadyState{})
			}
			end, dr := Executor{}.ExecuteSampled(c, k, threads, 0, iters, sampled.DefaultParams(), &st, mo)
			if end != iters || dr != nil {
				t.Errorf("exact=%v monitored=%v: stopped at %d with drift %v", exact, monitored, end, dr)
			}
		})
		return st, k.synthKernel
	}
	for _, monitored := range []bool{false, true} {
		st, k := run(true, monitored)
		if st.SkippedIters != 0 || st.FastForwards != 0 || st.DetailedIters != iters {
			t.Errorf("monitored=%v: %v, want all %d iterations detailed", monitored, st, iters)
		}
		if !k.coveredExactly(iters) {
			t.Errorf("monitored=%v: chunks %v do not cover [0, %d) in order", monitored, k.ranges, iters)
		}
		chunks := 1
		if monitored {
			chunks = (iters + DefaultMonitorParams().Interval - 1) / DefaultMonitorParams().Interval
		}
		if len(k.ranges) != chunks {
			t.Errorf("monitored=%v: %d chunks, want %d", monitored, len(k.ranges), chunks)
		}
		if st, _ := run(false, monitored); st.SkippedIters == 0 {
			t.Errorf("monitored=%v: the unmarked kernel skipped nothing (%v), so the test cannot tell", monitored, st)
		}
	}
}

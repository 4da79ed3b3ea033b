package workloads

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// TestOncePerRunFlagsUnderSampling runs bscholes and sconv, which
// compute each distinct value once per run, in sampled mode, where
// most of their iterations are fast-forwarded instead of run. Every
// Verify must still pass: each batch and slab must run at least once,
// and sconv's first run of a column slab must come after every row
// slab has run, since it reads their output.
func TestOncePerRunFlagsUnderSampling(t *testing.T) {
	policies := []core.Policy{core.Static{N: 1}, core.Static{N: 3}, core.Static{N: 8}, core.Combined{}}
	for _, name := range []string{"bscholes", "sconv"} {
		info, _ := ByName(name)
		for _, pol := range policies {
			m := machine.MustNew(machine.DefaultConfig())
			w := info.Factory(m)
			var early []int // column slabs first run before some row slab
			if sc, ok := w.(*SConv); ok {
				var allRows [sconvSlabs]bool
				for i := range allRows {
					allRows[i] = true
				}
				for i := range sc.kernel.phases {
					ph := &sc.kernel.phases[i]
					run := ph.run
					ph.run = func(tc *thread.Ctx, slab int) {
						before := sc.done
						run(tc, slab)
						if sc.done[1] != before[1] && before[0] != allRows {
							early = append(early, slab)
						}
					}
				}
			}
			ctl := core.NewController(pol)
			ctl.Mode = core.SampledMode()
			res := ctl.Run(m, w)
			if res.Sampled == nil || res.Sampled.SkippedIters == 0 {
				t.Errorf("%s, %s: sampled run skipped no iterations", name, pol.Name())
			}
			if err := w.(Verifier).Verify(); err != nil {
				t.Errorf("%s, %s, sampled: %v", name, pol.Name(), err)
			}
			if len(early) > 0 {
				t.Errorf("%s, %s, sampled: column slabs %v first ran before every row slab had", name, pol.Name(), early)
			}
		}
	}
}

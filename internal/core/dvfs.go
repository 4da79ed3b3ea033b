package core

import (
	"fmt"
	"math"

	"fdt/internal/machine"
)

// This file extends the Estimate stage from a one-dimensional thread
// count to the (threads, frequency) plane. For a machine with a
// P-state ladder (machine.FreqConfig), the search predicts each
// state's training profile from the nominal one — compute scales with
// the cycle-time multiplier, memory-stall and bus time stay
// wall-anchored — re-evaluates the policy's Eq. 3/5/7 models per
// state, clamps each state's thread count to its power budget, and
// picks the point with the minimum predicted execution time.
//
// The frequency/bus interaction falls out of the model rather than
// being bolted on: at a lower state the predicted single-thread time
// T_1(s) dilates while BusBusy does not, so BU_1(s) = BusBusy/T_1(s)
// drops and Eq. 5's saturation width P_BW(s) = 1/BU_1(s) widens. A
// bandwidth-limited kernel can therefore trade frequency for threads
// under a budget — the FDT+DVFS point the Pareto experiments chart.

// dvfsModelMargin is the model-trust margin of the frequency search: a
// lower-frequency candidate replaces the incumbent only when it
// predicts at least this much relatively faster. The scaled profile a
// candidate is judged on is a model extrapolation (compute dilates,
// memory does not), while the incumbent — scanned in descending-MHz
// order starting from the trained state's neighborhood — is closer to
// what was actually measured. Without the margin, a ~2% predicted edge
// for a lower state can hide a double-digit measured regression on
// synchronization-limited kernels (serialization costs grow faster
// than the linear Eq. 1 term), and the search would leave the nominal
// state for noise. With it, frequency only drops when the predicted
// gain clearly exceeds the extrapolation's error bar, which also makes
// FDT+DVFS weakly dominate fixed-frequency FDT by construction on
// near-ties: when no state clears the margin the search returns
// exactly the fixed-frequency decision.
const dvfsModelMargin = 0.05

// PowerParams arms the budget-constrained (threads, frequency)
// co-search in a controller's Estimate stage.
type PowerParams struct {
	// Budget caps predicted average chip power, in
	// nominal-active-core units (commensurate with the paper's
	// AvgActiveCores metric and the tracked meter's AvgPower, idle
	// draw included). <= 0 is unconstrained.
	Budget float64
	// LockState pins the P-state: < 0 searches the whole ladder
	// (FDT+DVFS); s >= 0 restricts the search to ladder state s — the
	// fixed-frequency FDT comparator of the Pareto experiments.
	LockState int
}

// DefaultPowerParams returns the unconstrained full-ladder search.
func DefaultPowerParams() PowerParams { return PowerParams{Budget: 0, LockState: -1} }

// key is the run-cache fragment for budget-constrained runs; empty
// for the default (unconstrained, unlocked) search, mirroring the
// exact-mode and trivial-ladder key rules.
func (pp PowerParams) key() string {
	if pp.Budget <= 0 && pp.LockState < 0 {
		return ""
	}
	return fmt.Sprintf("|power/b=%g,lock=%d", pp.Budget, pp.LockState)
}

// scaleTrain predicts the training profile at ladder state s from the
// nominal-state measurements: the compute component (total minus
// memory stalls) and the critical-section time dilate by the state's
// cycle-time multiplier k = MHz_0/MHz_s; memory-stall and bus-busy
// time are wall-anchored and carry over unscaled.
func scaleTrain(tr TrainResult, k float64) TrainResult {
	tmem := tr.MemStallCycles
	if tmem > tr.TotalCycles {
		tmem = tr.TotalCycles
	}
	tcomp := tr.TotalCycles - tmem
	out := tr
	out.TotalCycles = uint64(float64(tcomp)*k+0.5) + tmem
	cs := float64(tr.CSCycles) * k
	if csMax := float64(out.TotalCycles); cs > csMax {
		cs = csMax
	}
	out.CSCycles = uint64(cs + 0.5)
	return out
}

// predictTime evaluates the blended Eq. 1 + Eq. 6 execution-time
// model on a (scaled) training profile at p threads: the parallel
// part speeds up by p until the bus saturates (Eq. 6, with P_BW
// unbounded when bandwidth is excluded), and serialized
// critical-section time grows linearly in p.
func predictTime(tr TrainResult, p int) float64 {
	if p < 1 {
		p = 1
	}
	t := float64(tr.TotalCycles)
	cs := min(float64(tr.CSCycles), t)
	pbw := math.Inf(1)
	if !tr.BWExcluded {
		pbw = SaturationThreads(tr.BusUtil1())
	}
	return ExecTimeBW(t-cs, p, pbw) + float64(p)*cs
}

// EstimateDVFS is the Estimate stage over the (threads, frequency)
// plane. It condenses the sample like Estimate, then for every
// allowed ladder state predicts the scaled training profile, asks the
// policy for that state's thread count, clamps it to the budget's
// occupancy headroom, and returns the decision minimizing predicted
// time. States scan in descending-MHz order and a lower-frequency
// candidate wins only by clearing dvfsModelMargin — near-ties resolve
// to the higher frequency, where the scaled model is most trustworthy.
// trained names the ladder state the sample was
// measured at (the controller trains at the locked state when one is
// pinned, else nominal), so scaling is relative to it. When no state
// admits even one thread within the budget, the search degenerates to
// one thread in the lowest-power admissible configuration.
func (e Estimator) EstimateDVFS(pol Model, out SampleOutcome, cores int, fc machine.FreqConfig, pp PowerParams, trained int) (Decision, TrainResult) {
	if fc.Trivial() {
		// No ladder: the plane is one-dimensional. Apply only the
		// budget clamp against the implicit flat table (Active 1,
		// Idle 0): at most floor(Budget) cores may be active.
		d, tr := e.Estimate(pol, out, cores)
		if pp.Budget > 0 {
			if pmax := int(pp.Budget + 1e-9); d.Threads > pmax {
				if pmax < 1 {
					pmax = 1
				}
				d.Threads = pmax
			}
			d.PredPower = float64(d.Threads)
		}
		return d, tr
	}

	d0, tr := e.Estimate(pol, out, cores)
	table := fc.Table()
	if trained < 0 || trained >= len(fc.States) {
		trained = 0
	}
	trainedMHz := float64(fc.States[trained].MHz)

	states := make([]int, 0, len(fc.States))
	if pp.LockState >= 0 {
		s := pp.LockState
		if s >= len(fc.States) {
			s = len(fc.States) - 1
		}
		states = append(states, s)
	} else {
		for s := range fc.States {
			states = append(states, s)
		}
	}

	best := Decision{}
	bestTime := 0.0
	found := false
	for _, s := range states {
		k := trainedMHz / float64(fc.States[s].MHz)
		trS := scaleTrain(tr, k)
		dS := pol.Estimate(trS, cores)
		p := dS.Threads
		pmax := table.MaxActiveWithinBudget(s, cores, pp.Budget)
		if pmax < 1 {
			continue // budget below this state's idle floor
		}
		if p > pmax {
			p = pmax
		}
		t := predictTime(trS, p)
		pw := table.ChipPower(s, p, cores)
		if !found || t < bestTime*(1-dvfsModelMargin) {
			best = dS
			best.Threads = p
			best.FreqIndex = s
			best.Freq = fc.States[s].Name
			best.PredPower = pw
			bestTime = t
			found = true
		}
	}
	if !found {
		// Budget below every allowed state's idle floor: nothing is
		// admissible, so run minimally — one thread in the
		// lowest-power allowed state. The run will overshoot the
		// budget; the caller's invariant checker reports it.
		s := states[len(states)-1]
		minPow := table.ChipPower(s, 1, cores)
		for _, cand := range states {
			if pw := table.ChipPower(cand, 1, cores); pw < minPow {
				s, minPow = cand, pw
			}
		}
		best = d0
		best.Threads = 1
		best.FreqIndex = s
		best.Freq = fc.States[s].Name
		best.PredPower = minPow
	}
	// Echo the nominal-state measurements in the report fields: the
	// per-state scaled values are internal to the search.
	best.CSFraction = tr.CSFraction()
	best.BusUtil1 = tr.BusUtil1()
	return best, tr
}

// budgetStaticThreads clamps a static thread count to the budget's
// occupancy headroom at ladder state s (the static path's budget
// enforcement; no frequency search, because static policies by
// definition do not adapt).
func budgetStaticThreads(n int, fc machine.FreqConfig, s int, cores int, budget float64) int {
	if budget <= 0 {
		return n
	}
	var pmax int
	if fc.Trivial() {
		pmax = int(budget + 1e-9)
	} else {
		pmax = fc.Table().MaxActiveWithinBudget(s, cores, budget)
	}
	if pmax < 1 {
		pmax = 1
	}
	if n > pmax {
		return pmax
	}
	return n
}

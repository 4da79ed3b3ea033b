package core

// This file implements the Estimate stage of the FDT pipeline: it
// condenses the Sample stage's per-iteration series to the kernel's
// steady state and asks the policy's analytic model for a decision.

// Estimator turns sampling measurements into a thread-count decision.
type Estimator struct {
	Params TrainingParams
}

// Estimate condenses the sampled iterations to their steady state and
// evaluates the policy's model. The returned TrainResult is the
// steady-state view that actually fed the model — the reference the
// Monitor stage later compares execution intervals against.
//
// The first training iteration runs against cold caches, so its
// T_CS/T_NoCS ratio and bus utilization misrepresent the kernel's
// stable behaviour; on the paper's full-size inputs thousands of
// training iterations dilute this, but on scaled inputs it must be
// excluded explicitly (DESIGN.md, "Known deviations"). When the
// stability window is available beyond that, keep only the trailing
// window — the measurements the stability criterion actually accepted.
func (e Estimator) Estimate(pol Model, out SampleOutcome, cores int) (Decision, TrainResult) {
	tr := out.Train
	if est := e.steadySamples(out.Samples); est != nil {
		var wt, wcs, wb, wms uint64
		for _, s := range est {
			wt += s.Cycles
			wcs += s.CS
			wb += s.BusBusy
			wms += s.MemStall
		}
		if wt > 0 {
			tr.TotalCycles, tr.CSCycles, tr.BusBusyCycles = wt, wcs, wb
			tr.MemStallCycles = wms
		}
	}
	return pol.Estimate(tr, cores), tr
}

// Steady reports the per-iteration steady-state averages over the
// same sample window Estimate condenses to — the Monitor stage's
// reference expectations. When only the cold first iteration exists,
// it falls back to the raw aggregate.
func (e Estimator) Steady(out SampleOutcome) SteadyState {
	est := e.steadySamples(out.Samples)
	if est == nil {
		est = out.Samples
	}
	var ss SteadyState
	if len(est) == 0 {
		return ss
	}
	var wt, wcs, wb uint64
	for _, s := range est {
		wt += s.Cycles
		wcs += s.CS
		wb += s.BusBusy
	}
	n := float64(len(est))
	ss.Iters = len(est)
	ss.CyclesPerIter = float64(wt) / n
	ss.CSPerIter = float64(wcs) / n
	ss.BusPerIter = float64(wb) / n
	return ss
}

// steadySamples selects the steady window: drop the cold first
// sample, then keep only the trailing stability window when one is
// available. Returns nil when no warm samples exist.
func (e Estimator) steadySamples(samples []IterSample) []IterSample {
	if len(samples) <= 1 {
		return nil
	}
	est := samples[1:]
	if w := e.Params.StabilityWindow; w > 0 && len(est) > w {
		est = est[len(est)-w:]
	}
	return est
}

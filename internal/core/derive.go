package core

import "unsafe"

// This file lets the run cache serve a SAT, BAT or SAT+BAT run from a
// sibling's without simulating it. The three policies peel the same
// single-threaded training iterations and differ only in when they stop
// training and in the team size they then pick; the team size alone
// decides what executes after training. So when a sibling policy
// stopped exactly where this one would and executed the team size this
// one would pick, on every kernel, the two runs simulate the same
// events, and only the Policy label and the per-kernel Decision differ.

// runRecord is what a recording controller keeps of a train-once run's
// training, kernel by kernel, plus the run's simulated energy. The run
// cache holds it beside the run's memoized result; it is not part of
// RunResult, whose JSON stays as it was, and a result loaded from the
// store has none.
type runRecord struct {
	kernels []kernelRecord
	energy  float64
}

// kernelRecord is one kernel's part of a runRecord: the peeled series
// (nil when the kernel took the static path), the span training peeled
// from, the team size training saw, and the team size the kernel
// executed.
type kernelRecord struct {
	trained bool
	samples []IterSample
	span    int
	cores   int
	threads int
}

// bytes estimates the record's heap footprint for the cache's byte
// accounting.
func (rec *runRecord) bytes() uint64 {
	if rec == nil {
		return 0
	}
	size := uint64(unsafe.Sizeof(*rec))
	for _, k := range rec.kernels {
		size += uint64(unsafe.Sizeof(k)) + uint64(len(k.samples))*uint64(unsafe.Sizeof(IterSample{}))
	}
	return size
}

// Derivable reports whether the run cache records s's training and may
// derive s from a SAT, BAT or SAT+BAT sibling that differs from s only
// in its policy, once that sibling's run is memoized: s is a
// train-once SAT, BAT or SAT+BAT run of one team on a single-frequency
// machine without power parameters, where the team size is all a
// decision changes.
func (s RunSpec) Derivable() bool {
	if len(s.Teams) > 0 || s.Control.Adaptive || s.dvfs() {
		return false
	}
	switch s.Control.Policy.(type) {
	case SAT, BAT, Combined:
		return true
	}
	return false
}

// derive serves a Derivable s from the first memoized sibling whose
// record proves it identical, without waiting for a sibling in flight.
// It counts the derivation and adds the sibling's energy, as
// simulating s would have.
func (r *Runs) derive(s RunSpec) (runEntry, bool) {
	pol := s.Control.Policy.(Model)
	for _, sib := range []Model{Combined{}, SAT{}, BAT{}} {
		if sib == pol {
			continue
		}
		t := s
		t.Control.Policy = sib
		e, ok := r.peek(t.key())
		if !ok || e.rec == nil {
			continue
		}
		if res, ok := e.rec.replay(pol, s.trainingParams(), e.res); ok {
			r.derived.Add(1)
			r.addEnergy(e.rec.energy)
			return runEntry{res: res, rec: e.rec}, true
		}
	}
	return runEntry{}, false
}

// replay derives pol's result from a sibling's result res and its
// record: on every kernel, pol's stop rule must stop at the end of the
// recorded series and pol's estimate must pick the executed team size.
// The derived result shares no mutable memory with res.
func (rec *runRecord) replay(pol Model, p TrainingParams, res RunResult) (RunResult, bool) {
	out := res
	out.Policy = pol.Name()
	out.Kernels = make([]KernelResult, len(res.Kernels))
	for i, k := range rec.kernels {
		d := Decision{Threads: pol.StaticThreads(k.cores)}
		if k.trained {
			tr, stopped := p.trainStop(pol, k.samples, k.span, k.cores)
			if !stopped || tr.Iters != len(k.samples) {
				return RunResult{}, false
			}
			d, _ = Estimator{Params: p}.Estimate(pol, SampleOutcome{Train: tr, Samples: k.samples}, k.cores)
		}
		if d.Threads != k.threads {
			return RunResult{}, false
		}
		out.Kernels[i] = res.Kernels[i]
		out.Kernels[i].Decision = d
	}
	if res.Sampled != nil {
		st := *res.Sampled
		out.Sampled = &st
	}
	return out, true
}

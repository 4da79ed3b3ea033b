package core

import (
	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/power"
	"fdt/internal/sampled"
	"fdt/internal/thread"
	"fdt/internal/trace"
)

// TrainingParams tunes the FDT training loop. Defaults reproduce the
// paper's settings (Sections 4.2.1 and 5.2).
type TrainingParams struct {
	// MaxTrainFraction caps training at this fraction of the kernel's
	// iterations (paper: 1%). At least one iteration always trains.
	MaxTrainFraction float64
	// StabilityWindow is the number of consecutive iterations whose
	// T_CS/T_NoCS ratio must agree for SAT training to stop early
	// (paper: 3).
	StabilityWindow int
	// StabilityTol is the allowed relative spread within the window
	// (paper: 5%).
	StabilityTol float64
	// BATEarlyOutCycles is the training time after which BAT may
	// conclude the kernel cannot be bandwidth-limited (paper: 10000).
	BATEarlyOutCycles uint64
	// MinIterations is the smallest kernel (in iterations) worth
	// training on: peeling a meaningful sample from a shorter loop
	// would consume most of it single-threaded, so such kernels run
	// with the policy's static fallback. The paper's Section 9 notes
	// non-iterative kernels need "a specialized training loop"; until
	// a kernel provides one, not training is the safe default.
	MinIterations int
}

// DefaultTrainingParams returns the paper's training configuration.
func DefaultTrainingParams() TrainingParams {
	return TrainingParams{
		MaxTrainFraction:  0.01,
		StabilityWindow:   3,
		StabilityTol:      0.05,
		BATEarlyOutCycles: 10000,
		MinIterations:     8,
	}
}

// PhaseDecision records one phase of an adaptively-executed kernel:
// the decision that governed it, the training that produced the
// decision, and what ended the previous phase.
type PhaseDecision struct {
	// StartIter is the first iteration of the phase (its training
	// iterations included).
	StartIter int
	// Decision is the thread count (and model estimates) the phase
	// executed with.
	Decision Decision
	// TrainIters and TrainCycles are this phase's re-training cost.
	TrainIters  int
	TrainCycles uint64
	// Cycles is the phase's total time, training included.
	Cycles uint64
	// Trigger names the drift signal that caused this phase's
	// re-training ("cs" or "bus"); empty for the kernel's first phase.
	// Hybrid executions add "fallback" (the residual crossed its high
	// threshold), "recover" (it decayed below the low threshold) and
	// "measure" (a measured-state re-climb).
	Trigger string
	// Mode records which hybrid state ran the phase ("model" or
	// "measured"); empty for non-hybrid runs, so exact-mode JSON stays
	// bit-identical to pre-hybrid releases.
	Mode string `json:",omitempty"`
}

// KernelResult records how one kernel executed under a policy.
type KernelResult struct {
	Kernel      string
	Decision    Decision
	TrainIters  int
	TrainCycles uint64
	// Cycles is the kernel's total execution time including training.
	Cycles uint64
	// Phases holds the per-phase decisions of a monitored (adaptive)
	// execution, in order; nil for train-once runs. Decision above is
	// the first phase's decision, TrainIters/TrainCycles the totals
	// across phases.
	Phases []PhaseDecision
	// Retrains counts the Monitor-triggered re-trainings (always
	// len(Phases)-1 when Phases is set).
	Retrains int
	// Fallbacks and Recoveries count the hybrid controller's state
	// transitions: model -> measured when the residual crossed its high
	// threshold, and measured -> model when it decayed below the low
	// one. Zero for every other controller (and omitted from JSON, so
	// exact-mode output stays bit-identical to pre-hybrid releases).
	Fallbacks  int `json:",omitempty"`
	Recoveries int `json:",omitempty"`
}

// RunResult records a complete workload execution on one machine.
type RunResult struct {
	Workload string
	Policy   string
	// TotalCycles is the program's execution time.
	TotalCycles uint64
	// AvgActiveCores is the paper's power metric over the whole run.
	AvgActiveCores float64
	// BusBusyCycles is the off-chip data-bus occupancy over the run.
	BusBusyCycles uint64
	Kernels       []KernelResult
	// Sampled holds sampled-execution statistics when the run executed
	// in sampled mode; nil for exact runs (and omitted from JSON, so
	// exact-mode output stays bit-identical to pre-sampling releases).
	Sampled *sampled.Stats `json:",omitempty"`
	// Energy holds the table-driven energy accounting when the run
	// executed on a machine with a P-state ladder; nil on
	// single-frequency machines (and omitted from JSON, so their
	// output stays bit-identical to pre-DVFS releases). Energy.AvgPower
	// is the budget-comparable chip power including idle draw;
	// AvgActiveCores above remains the paper's flat metric.
	Energy *power.Energy `json:",omitempty"`
	// Mapping and Teams report a partitioned run (RunSpec.Teams): the
	// thread-to-core mapping and one result per partition, idle ones
	// included, in team order. The fields above are then
	// machine-global: TotalCycles is the makespan. Both are omitted
	// from JSON for single-team runs, whose output stays
	// byte-identical.
	Mapping string       `json:",omitempty"`
	Teams   []TeamResult `json:",omitempty"`
}

// AvgThreads reports the cycle-weighted average team size across
// kernels — the quantity behind MTwister's "average number of threads
// reduces to 21" observation (Section 5.3). Adaptive kernels weight
// each phase by its own cycles.
func (r RunResult) AvgThreads() float64 {
	var wsum, cyc uint64
	for _, k := range r.Kernels {
		if len(k.Phases) > 0 {
			for _, p := range k.Phases {
				wsum += uint64(p.Decision.Threads) * p.Cycles
				cyc += p.Cycles
			}
			continue
		}
		wsum += uint64(k.Decision.Threads) * k.Cycles
		cyc += k.Cycles
	}
	if cyc == 0 {
		return 0
	}
	return float64(wsum) / float64(cyc)
}

// Controller runs workloads under a threading policy. A Model policy
// goes through the FDT pipeline: Sample (peeled-iteration
// instrumentation) -> Estimate (the policy's model) -> Execute
// (chunked team execution) -> Monitor (per-interval counter deltas
// during execution). With Monitor nil the pipeline degenerates to Fig
// 5's train-once flow — the seed controller, bit-identical. A measured
// policy runs each whole kernel itself; the run frame around the
// kernels is the same for both.
type Controller struct {
	Policy Policy
	Params TrainingParams
	// Monitor enables phase-adaptive re-training: execution proceeds
	// in Interval-sized chunks and drifting counter deltas send the
	// pipeline back to the Sample stage. nil (the default) reproduces
	// the paper's train-once controller exactly.
	Monitor *MonitorParams
	// Mode selects exact or sampled execution (see Mode). The zero
	// value is exact mode — bit-identical to the pre-sampling
	// controller.
	Mode Mode
	// Power arms the budget-constrained (threads, frequency) co-search
	// in the Estimate stage (see PowerParams and EstimateDVFS). nil
	// defaults to the unconstrained full-ladder search on machines
	// with a P-state ladder and to the plain Estimate stage otherwise.
	Power *PowerParams

	// st accumulates sampled-execution statistics for the current run;
	// set by Run when Mode.Sampled, nil otherwise.
	st *sampled.Stats
}

// NewController builds a train-once controller with the paper's
// training parameters.
func NewController(p Policy) *Controller {
	return &Controller{Policy: p, Params: DefaultTrainingParams()}
}

// Run executes the workload on the machine under the controller's
// policy and reports the run's timing, power and per-kernel decisions.
// The machine must be fresh (one Machine simulates one execution).
func (ctl *Controller) Run(m *machine.Machine, w Workload) RunResult {
	res := RunResult{Workload: w.Name(), Policy: ctl.Policy.Name()}
	if ctl.Power != nil && ctl.Power.Budget > 0 {
		m.SetPowerBudget(ctl.Power.Budget)
	}
	thread.Run(m, ctl.runBody(w, &res))
	m.FinishCheck()
	res.TotalCycles = m.Eng.Now()
	res.AvgActiveCores = m.Power.AverageActiveCores(res.TotalCycles)
	res.BusBusyCycles = m.Ctrs.Counter(counters.BusBusyCycles).Read()
	if m.Power.Tracked() {
		e := m.Power.Energy(res.TotalCycles)
		res.Energy = &e
	}
	return res
}

// dvfsOn reports whether the Estimate stage searches the (threads,
// frequency) plane / enforces a budget on machine m: armed by a
// non-trivial ladder or explicit PowerParams, off otherwise — the
// bit-identical legacy pipeline.
func (ctl *Controller) dvfsOn(m *machine.Machine) bool {
	return !m.Cfg.Freq.Trivial() || ctl.Power != nil
}

// powerParams resolves the controller's power parameters (nil means
// the unconstrained full-ladder search).
func (ctl *Controller) powerParams() PowerParams {
	if ctl.Power != nil {
		return *ctl.Power
	}
	return DefaultPowerParams()
}

// trainState picks the ladder state training runs at: the locked
// state when one is pinned — a fixed-frequency run trains at its own
// frequency, so the Eq. 3/5/7 models apply to it unscaled — else
// nominal.
func (ctl *Controller) trainState(m *machine.Machine) int {
	if m.Cfg.Freq.Trivial() {
		return 0
	}
	if pp := ctl.powerParams(); pp.LockState >= 0 {
		s := pp.LockState
		if s >= len(m.Cfg.Freq.States) {
			s = len(m.Cfg.Freq.States) - 1
		}
		return s
	}
	return 0
}

// setFreq moves the whole chip to ladder state idx at the current
// cycle; no-op on single-frequency machines.
func (ctl *Controller) setFreq(c *thread.Ctx, idx int) {
	m := c.Machine()
	if m.Cfg.Freq.Trivial() {
		return
	}
	m.SetFreq(idx, c.CPU.CycleCount())
}

// runBody builds the master function for one workload execution: it
// sets the workload up, then runs its kernels in order, filling res as
// they complete. Extracted from Run so a co-run can hand each team's
// controller pipeline to thread.RunTeams: every team runs its own
// Sample -> Estimate -> Execute -> Monitor loop concurrently against
// the shared memory system.
func (ctl *Controller) runBody(w Workload, res *RunResult) func(c *thread.Ctx) {
	if ctl.Mode.Sampled {
		ctl.st = &sampled.Stats{}
		res.Sampled = ctl.st
	}
	return func(c *thread.Ctx) {
		if sw, ok := w.(SetupWorkload); ok {
			sw.Setup(c)
		}
		for _, k := range w.Kernels() {
			res.Kernels = append(res.Kernels, ctl.runKernel(c, k))
		}
	}
}

// ctlTrace emits the controller's pipeline onto the trace's
// "controller" track: sample and execute spans, decision instants,
// and retrain instants carrying the counter deltas that triggered
// them. The zero value (no tracer, or one without trace.CatCtl) is a
// no-op, so the pipeline code calls it unconditionally.
type ctlTrace struct {
	tr    *trace.Tracer
	track trace.TrackID
	on    bool
}

// newCtlTrace builds the controller's trace handle for one machine.
func newCtlTrace(m *machine.Machine) ctlTrace {
	t := m.Trace
	if !t.Wants(trace.CatCtl) {
		return ctlTrace{}
	}
	return ctlTrace{tr: t, track: t.Track(trace.ControllerTrack), on: true}
}

// span emits a Complete stage span.
func (ct ctlTrace) span(name, kernel string, start, end uint64, a0, a1, a2 uint64) {
	if !ct.on || end < start {
		return
	}
	ct.tr.Emit(trace.CatCtl, trace.Event{
		Cycle: start, Dur: end - start, Track: ct.track, Kind: trace.Complete,
		Name: name, Label: kernel, A0: a0, A1: a1, A2: a2,
	})
}

// decision emits the Estimate stage's output as an instant.
func (ct ctlTrace) decision(kernel string, cycle uint64, d Decision) {
	if !ct.on {
		return
	}
	ct.tr.Emit(trace.CatCtl, trace.Event{
		Cycle: cycle, Track: ct.track, Kind: trace.Instant, Name: "decision",
		Label: kernel, A0: uint64(d.Threads), A1: uint64(d.PCS), A2: uint64(d.PBW),
	})
}

// retrain emits a Monitor-triggered phase change: the drifted signal
// and the observed/expected per-iteration cycle values that tripped
// the tolerance — the audit trail for "why did it retrain here".
func (ct ctlTrace) retrain(cycle uint64, dr *Drift) {
	if !ct.on {
		return
	}
	ct.tr.Emit(trace.CatCtl, trace.Event{
		Cycle: cycle, Track: ct.track, Kind: trace.Instant, Name: "retrain",
		Label: dr.Signal, A0: uint64(dr.Iter),
		A1: uint64(dr.Observed + 0.5), A2: uint64(dr.Expected + 0.5),
	})
}

// runKernel drives one kernel through the pipeline. A measured policy
// executes the kernel itself. Models that do not train (and kernels
// too small to peel) take the static path; training models sample,
// estimate and execute — once when monitoring is off, per phase when
// it is on.
func (ctl *Controller) runKernel(c *thread.Ctx, k Kernel) KernelResult {
	pol, ok := ctl.Policy.(Model)
	if !ok {
		return ctl.Policy.(measuredPolicy).runKernel(c, k)
	}
	m := c.Machine()
	cores := c.TeamSize()
	n := k.Iterations()
	start := c.CPU.CycleCount()
	ct := newCtlTrace(m)

	if !pol.NeedsTraining() || n < ctl.Params.MinIterations {
		d := Decision{Threads: pol.StaticThreads(cores)}
		if ctl.dvfsOn(m) {
			pp := ctl.powerParams()
			idx := ctl.trainState(m)
			d.Threads = budgetStaticThreads(d.Threads, m.Cfg.Freq, idx, cores, pp.Budget)
			if !m.Cfg.Freq.Trivial() {
				d.FreqIndex = idx
				d.Freq = m.Cfg.Freq.States[idx].Name
				d.PredPower = m.Cfg.Freq.Table().ChipPower(idx, d.Threads, cores)
				ctl.setFreq(c, idx)
			} else if pp.Budget > 0 {
				d.PredPower = float64(d.Threads)
			}
		}
		ct.decision(k.Name(), start, d)
		ctl.execute(c, k, d.Threads, 0, n)
		ct.span("execute", k.Name(), start, c.CPU.CycleCount(), uint64(d.Threads), 0, uint64(n))
		return KernelResult{
			Kernel:   k.Name(),
			Decision: d,
			Cycles:   c.CPU.CycleCount() - start,
		}
	}

	return ctl.runTrained(c, k, pol, n, cores, start, ct)
}

// runTrained is the training pipeline: Sample -> Estimate -> Execute,
// once for a train-once controller (Fig 7's three-stage flow). With
// monitoring on, execution runs under the Monitor and the pipeline
// re-enters the Sample stage at every detected phase change (up to
// MaxRetrains); tails too short to re-train on, and the remainder
// after the retrain budget is spent, execute unmonitored with the
// current decision.
func (ctl *Controller) runTrained(c *thread.Ctx, k Kernel, pol Model, n, cores int, start uint64, ct ctlTrace) KernelResult {
	sampler := Sampler{Params: ctl.Params}
	estimator := Estimator{Params: ctl.Params}
	m := c.Machine()
	dvfs := ctl.dvfsOn(m)

	cc := newCtlCheck(m)
	kr := KernelResult{Kernel: k.Name()}
	iter := 0
	trigger := ""
	for iter < n {
		phaseStart := c.CPU.CycleCount()
		cc.atDecision(c, phaseStart)
		if dvfs {
			ctl.setFreq(c, ctl.trainState(m))
		}
		out := sampler.Sample(c, k, pol, iter, n)
		ctl.countTraining(out.Train.Iters)
		var d Decision
		var tr TrainResult
		if dvfs {
			d, tr = estimator.EstimateDVFS(pol, out, cores, m.Cfg.Freq, ctl.powerParams(), ctl.trainState(m))
		} else {
			d, tr = estimator.Estimate(pol, out, cores)
		}
		trainCycles := c.CPU.CycleCount() - phaseStart
		ct.span("sample", k.Name(), phaseStart, c.CPU.CycleCount(), uint64(out.Train.Iters), uint64(iter), 0)
		ct.decision(k.Name(), c.CPU.CycleCount(), d)
		if dvfs {
			// The Monitor's calibration interval rebases its
			// expectations on the first executed interval, absorbing
			// the frequency shift between training and execution.
			ctl.setFreq(c, d.FreqIndex)
		} else {
			// The checker re-derives the Eq. 3/5/7 decision, which
			// assumes the unconstrained nominal-frequency Estimate
			// stage; the DVFS search is covered by its own estimator
			// tests instead.
			cc.decision(pol, tr, cores, d, c.CPU.CycleCount())
		}

		var stop int
		var dr *Drift
		execStart := c.CPU.CycleCount()
		if ctl.Monitor == nil || kr.Retrains >= ctl.Monitor.MaxRetrains {
			ctl.execute(c, k, d.Threads, out.Next, n)
			stop = n
		} else {
			mo := NewMonitor(*ctl.Monitor, estimator.Steady(out))
			if ctl.Mode.Sampled {
				stop, dr = Executor{}.ExecuteSampled(c, k, d.Threads, out.Next, n, ctl.Mode.Params, ctl.st, mo)
			} else {
				stop, dr = Executor{}.ExecuteMonitored(c, k, d.Threads, out.Next, n, mo)
			}
		}
		ct.span("execute", k.Name(), execStart, c.CPU.CycleCount(), uint64(d.Threads), uint64(out.Next), uint64(stop))
		if dr != nil {
			ct.retrain(c.CPU.CycleCount(), dr)
		}

		kr.TrainIters += out.Train.Iters
		kr.TrainCycles += trainCycles
		kr.Phases = append(kr.Phases, PhaseDecision{
			StartIter:   iter,
			Decision:    d,
			TrainIters:  out.Train.Iters,
			TrainCycles: trainCycles,
			Cycles:      c.CPU.CycleCount() - phaseStart,
			Trigger:     trigger,
		})
		iter = stop
		if dr == nil {
			break
		}
		if n-iter < ctl.Params.MinIterations {
			// Tail too short to re-train on: finish with the current
			// decision and account it to the last phase.
			tailStart := c.CPU.CycleCount()
			ctl.execute(c, k, d.Threads, iter, n)
			kr.Phases[len(kr.Phases)-1].Cycles += c.CPU.CycleCount() - tailStart
			iter = n
			break
		}
		trigger = dr.Signal
		kr.Retrains++
	}
	kr.Decision = kr.Phases[0].Decision
	kr.Cycles = c.CPU.CycleCount() - start
	if ctl.Monitor == nil {
		kr.Phases = nil // a train-once kernel is its one phase
	}
	return kr
}

// execute runs one unmonitored chunk in the controller's mode: a
// single exact chunk, or windowed sampled execution with steady-state
// fast-forward.
func (ctl *Controller) execute(c *thread.Ctx, k Kernel, threads, lo, hi int) {
	if ctl.Mode.Sampled {
		Executor{}.ExecuteSampled(c, k, threads, lo, hi, ctl.Mode.Params, ctl.st, nil)
		return
	}
	Executor{}.Execute(c, k, threads, lo, hi)
}

// countTraining folds a training sample's iterations into the sampled
// stats (training always cycle-simulates).
func (ctl *Controller) countTraining(iters int) {
	if ctl.st != nil {
		ctl.st.DetailedIters += iters
	}
}

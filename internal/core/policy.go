package core

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/thread"
)

// TrainResult aggregates what the FDT training loop measured while
// executing a kernel's peeled iterations single-threaded.
type TrainResult struct {
	// Iters is the number of training iterations executed.
	Iters int
	// TotalCycles is the wall-clock cycles the training iterations took.
	TotalCycles uint64
	// CSCycles is the cycles spent inside critical sections.
	CSCycles uint64
	// BusBusyCycles is the cycles the off-chip data bus was busy.
	BusBusyCycles uint64
	// MemStallCycles is the cycles the training thread spent stalled
	// on memory accesses (load + store port stalls). The DVFS search
	// uses it to split TotalCycles into frequency-scaled compute and
	// wall-anchored memory time; the single-frequency policies ignore
	// it.
	MemStallCycles uint64
	// SATStable reports whether the T_CS/T_NoCS ratio met the
	// stability criterion (within 5% for three consecutive
	// iterations) before the iteration cap.
	SATStable bool
	// BWExcluded reports whether BAT's early-out fired: after 10000
	// cycles of training, projected utilization at full occupancy
	// (BU_1 x cores) stayed below 100%, so the kernel cannot become
	// bandwidth-limited on this machine.
	BWExcluded bool
}

// CSFraction reports T_CS / T_total measured in training.
func (tr TrainResult) CSFraction() float64 {
	if tr.TotalCycles == 0 {
		return 0
	}
	return float64(tr.CSCycles) / float64(tr.TotalCycles)
}

// BusUtil1 reports the single-thread bus utilization BU_1 measured in
// training (fractional, 0..1).
func (tr TrainResult) BusUtil1() float64 {
	if tr.TotalCycles == 0 {
		return 0
	}
	u := float64(tr.BusBusyCycles) / float64(tr.TotalCycles)
	if u > 1 {
		u = 1
	}
	return u
}

// Decision is a policy's verdict for one kernel.
type Decision struct {
	// Threads is the team size for the kernel's remaining iterations.
	Threads int
	// PCS is SAT's estimate (0 = not synchronization-limited / not
	// evaluated).
	PCS int
	// PBW is BAT's estimate (0 = not bandwidth-limited / not
	// evaluated).
	PBW int
	// CSFraction and BusUtil1 echo the training measurements behind
	// the estimates, for reports.
	CSFraction float64
	BusUtil1   float64
	// FreqIndex and Freq record the P-state the DVFS-aware Estimate
	// stage chose (see EstimateDVFS); zero/empty on single-frequency
	// machines — and omitted from JSON, so exact-mode output stays
	// bit-identical to pre-DVFS releases.
	FreqIndex int    `json:",omitempty"`
	Freq      string `json:",omitempty"`
	// PredPower is the chip power the chosen (threads, freq) point
	// was predicted to draw (nominal-active-core units; the budget
	// the clamp enforced). Zero when no DVFS search ran.
	PredPower float64 `json:",omitempty"`
}

// Policy chooses thread counts for kernels. A policy is either a
// training Model, which the Controller's FDT pipeline drives, or a
// measured controller, which times real chunks and receives whole
// kernels (HillClimb, Hybrid, RefinedBAT).
type Policy interface {
	// Name identifies the policy in reports ("SAT", "BAT", "SAT+BAT",
	// "static-32", "hill-climb").
	Name() string
}

// Model is a policy the FDT pipeline drives: trained ones (NeedsTraining
// true) receive the training measurements; static ones are asked
// directly.
type Model interface {
	Policy
	// NeedsTraining reports whether the controller should run the FDT
	// training loop for this policy.
	NeedsTraining() bool
	// WantsSAT and WantsBAT select which measurements the training
	// loop must finish collecting before it may stop early.
	WantsSAT() bool
	WantsBAT() bool
	// Estimate converts training measurements into a decision.
	// cores is the machine's available core count.
	Estimate(tr TrainResult, cores int) Decision
	// StaticThreads is consulted when NeedsTraining is false.
	StaticThreads(cores int) int
}

// measuredPolicy is a policy that brings its own kernel execution: the
// Controller hands it each whole kernel and keeps the run frame
// (setup, bus and energy accounting, end-of-run checks) for itself.
type measuredPolicy interface {
	runKernel(c *thread.Ctx, k Kernel) KernelResult
}

// The measured policies (HillClimb, RefinedBAT, Hybrid) share one
// measurement primitive and one way to close a kernel: each differs
// only in the order it probes team sizes.

// timeChunk runs iterations [lo, hi) at team size threads and reports
// the cycles the chunk took and the bus-busy cycles it added.
func timeChunk(c *thread.Ctx, k Kernel, threads, lo, hi int) (cycles, bus uint64) {
	busCtr := c.Machine().Ctrs.Counter(counters.BusBusyCycles)
	t0 := c.CPU.CycleCount()
	b0 := busCtr.Sample()
	k.RunChunk(c, threads, lo, hi)
	return c.CPU.CycleCount() - t0, busCtr.DeltaSince(b0)
}

// finishKernel runs the kernel's remaining iterations [iter, n) at
// d.Threads and reports it: the iterations before iter, and the cycles
// since start up to now, were spent probing and count as training.
func finishKernel(c *thread.Ctx, k Kernel, d Decision, iter int, start uint64) KernelResult {
	trainCycles := c.CPU.CycleCount() - start
	if n := k.Iterations(); iter < n {
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

// --- SAT -------------------------------------------------------------

// SAT is Synchronization-Aware Threading (Section 4): it predicts
// P_CS = sqrt(T_NoCS/T_CS) from training and uses min(P_CS, cores).
type SAT struct{}

func (SAT) Name() string            { return "SAT" }
func (SAT) NeedsTraining() bool     { return true }
func (SAT) WantsSAT() bool          { return true }
func (SAT) WantsBAT() bool          { return false }
func (SAT) StaticThreads(c int) int { return c }

// Estimate implements Section 4.2.2: round P_CS to the nearest
// integer, clamp to the available cores.
func (SAT) Estimate(tr TrainResult, cores int) Decision {
	d := Decision{CSFraction: tr.CSFraction(), BusUtil1: tr.BusUtil1()}
	if tr.CSCycles == 0 {
		d.Threads = cores
		return d
	}
	tNoCS := float64(tr.TotalCycles - tr.CSCycles)
	pcs := OptimalThreadsCS(tNoCS, float64(tr.CSCycles))
	d.PCS = RoundSAT(pcs, cores)
	d.Threads = d.PCS
	return d
}

// --- BAT -------------------------------------------------------------

// BAT is Bandwidth-Aware Threading (Section 5): it predicts
// P_BW = ceil(100/BU_1) from training and uses min(P_BW, cores).
type BAT struct{}

func (BAT) Name() string            { return "BAT" }
func (BAT) NeedsTraining() bool     { return true }
func (BAT) WantsSAT() bool          { return false }
func (BAT) WantsBAT() bool          { return true }
func (BAT) StaticThreads(c int) int { return c }

// Estimate implements Section 5.2's estimation stage.
func (BAT) Estimate(tr TrainResult, cores int) Decision {
	d := Decision{CSFraction: tr.CSFraction(), BusUtil1: tr.BusUtil1()}
	bu1 := d.BusUtil1
	if tr.BWExcluded || bu1 <= 0 || bu1*float64(cores) < 1 {
		// The bus cannot saturate even with every core running.
		d.Threads = cores
		return d
	}
	d.PBW = RoundBAT(SaturationThreads(bu1), cores)
	d.Threads = d.PBW
	return d
}

// --- SAT+BAT ---------------------------------------------------------

// Combined is (SAT+BAT) of Section 6: both trainings run, and the
// thread count is MIN(P_CS, P_BW, cores) — Equation 7, optimal per
// the Appendix proof.
type Combined struct{}

func (Combined) Name() string            { return "SAT+BAT" }
func (Combined) NeedsTraining() bool     { return true }
func (Combined) WantsSAT() bool          { return true }
func (Combined) WantsBAT() bool          { return true }
func (Combined) StaticThreads(c int) int { return c }

// Estimate combines both models per Equation 7.
func (Combined) Estimate(tr TrainResult, cores int) Decision {
	sat := SAT{}.Estimate(tr, cores)
	bat := BAT{}.Estimate(tr, cores)
	d := Decision{
		PCS:        sat.PCS,
		PBW:        bat.PBW,
		CSFraction: tr.CSFraction(),
		BusUtil1:   tr.BusUtil1(),
	}
	d.Threads = CombinedThreads(d.PCS, d.PBW, cores)
	return d
}

// --- Static ----------------------------------------------------------

// Static always uses a fixed thread count (clamped to the core
// count). Static{N: 0} means "as many threads as cores" — the
// conventional threading the paper's baselines use (Section 2).
type Static struct {
	N int
}

// Name reports "static-N" or "static-all".
func (s Static) Name() string {
	if s.N <= 0 {
		return "static-all"
	}
	return fmt.Sprintf("static-%d", s.N)
}

func (s Static) NeedsTraining() bool { return false }
func (s Static) WantsSAT() bool      { return false }
func (s Static) WantsBAT() bool      { return false }

// StaticThreads reports the fixed count, clamped to cores.
func (s Static) StaticThreads(cores int) int {
	if s.N <= 0 || s.N > cores {
		return cores
	}
	return s.N
}

// Estimate returns the static decision (never called by the
// controller, provided for interface completeness).
func (s Static) Estimate(_ TrainResult, cores int) Decision {
	return Decision{Threads: s.StaticThreads(cores)}
}

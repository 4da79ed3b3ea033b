package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
)

// Ablations quantify the design choices DESIGN.md Section 6 calls
// out: what the memory-system details contribute to the measured
// behaviour, and what FDT's training knobs cost. They have no paper
// counterpart — they characterize this reproduction.

// AblationRow is one configuration's outcome on one workload.
type AblationRow struct {
	Config   string
	Workload string
	// Threads is the policy's decision, Cycles the execution time,
	// BU1Pct the measured single-thread bus utilization (where the
	// policy measures one), TrainIters the training length.
	Threads    int
	Cycles     uint64
	BU1Pct     float64
	TrainIters int
}

// Ablation is a titled set of rows.
type Ablation struct {
	Title string
	Rows  []AblationRow
}

// String renders the ablation.
func (a Ablation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", a.Title)
	fmt.Fprintf(&b, "  %-26s %-10s %8s %12s %8s %6s\n", "config", "workload", "threads", "cycles", "bu1", "train")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-26s %-10s %8d %12d %7.2f%% %6d\n",
			r.Config, r.Workload, r.Threads, r.Cycles, r.BU1Pct, r.TrainIters)
	}
	return b.String()
}

func ablationRow(o Options, cfgName, workload string, cfg machine.Config, pol core.Policy) AblationRow {
	// Keyed by workload name; the machine fingerprint in the cache key
	// keeps each ablation's config variant distinct.
	o.Cfg = cfg
	r := o.run(workload, core.Control{Policy: pol})
	k := r.Kernels[0]
	return AblationRow{
		Config:     cfgName,
		Workload:   workload,
		Threads:    k.Decision.Threads,
		Cycles:     r.TotalCycles,
		BU1Pct:     100 * k.Decision.BusUtil1,
		TrainIters: k.TrainIters,
	}
}

// AblationRowBuffer toggles DRAM row-buffer modeling: without open
// rows every access pays the full bank latency, shifting ED's
// measured BU1 and therefore BAT's knee.
func AblationRowBuffer(o Options) Ablation {
	a := Ablation{Title: "DRAM row-buffer modeling (ED under BAT)"}
	on := o.Cfg
	off := o.Cfg
	off.Mem.ModelRowBuffer = false
	a.Rows = append(a.Rows,
		ablationRow(o, "row-buffer on", "ed", on, core.BAT{}),
		ablationRow(o, "row-buffer off", "ed", off, core.BAT{}),
	)
	return a
}

// AblationCoherence toggles the MESI directory: without coherence,
// critical sections lose the lock-line and shared-data ping-pong that
// makes them more expensive under contention.
func AblationCoherence(o Options) Ablation {
	a := Ablation{Title: "directory MESI modeling (PageMine under SAT)"}
	on := o.Cfg
	off := o.Cfg
	off.Mem.ModelCoherence = false
	a.Rows = append(a.Rows,
		ablationRow(o, "coherence on", "pagemine", on, core.SAT{}),
		ablationRow(o, "coherence off", "pagemine", off, core.SAT{}),
	)
	return a
}

// AblationStoreBuffer varies the store-buffer depth: transpose writes
// each output column as a burst of lines, so a shallow buffer stalls
// the core on its own writes while a deep one lets the burst drain in
// the background. (Convert, whose stores interleave with per-pixel
// compute, is insensitive to the depth — the buffer never fills.)
func AblationStoreBuffer(o Options) Ablation {
	a := Ablation{Title: "store-buffer depth (transpose under BAT)"}
	for _, entries := range []int{1, 8, 64} {
		cfg := o.Cfg
		cfg.Mem.StoreBufferEntries = entries
		a.Rows = append(a.Rows,
			ablationRow(o, fmt.Sprintf("store buffer %d", entries), "transpose", cfg, core.BAT{}))
	}
	return a
}

// AblationStabilityWindow varies SAT's stability criterion: a longer
// window trains longer before committing; window 0 disables early
// termination entirely (training runs to the 1% cap).
func AblationStabilityWindow(o Options) Ablation {
	a := Ablation{Title: "SAT stability window (ISort)"}
	for _, w := range []int{0, 3, 6} {
		pol := core.SAT{}
		ctl := core.NewController(pol)
		ctl.Mode = o.Mode
		ctl.Params.StabilityWindow = w
		m := machine.MustNew(o.Cfg)
		info := factory("isort")
		r := ctl.Run(m, info(m))
		k := r.Kernels[0]
		a.Rows = append(a.Rows, AblationRow{
			Config:     fmt.Sprintf("window %d", w),
			Workload:   "isort",
			Threads:    k.Decision.Threads,
			Cycles:     r.TotalCycles,
			BU1Pct:     100 * k.Decision.BusUtil1,
			TrainIters: k.TrainIters,
		})
	}
	return a
}

// AblationTrainingOverhead compares FDT's single single-threaded
// training loop against the related work's hill-climbing allocation
// search ([6][7][27]): the search probes several team sizes with real
// iterations, so its training grows with the allocation space —
// exactly the overhead the paper's Section 7 argues FDT avoids.
func AblationTrainingOverhead(o Options) Ablation {
	a := Ablation{Title: "FDT training vs hill-climbing allocation search"}
	for _, name := range []string{"pagemine", "ed", "bscholes"} {
		fdt := o.run(name, core.Control{Policy: core.Combined{}})
		hc := o.run(name, core.Control{Policy: core.HillClimb{}})
		a.Rows = append(a.Rows,
			AblationRow{
				Config: "FDT (SAT+BAT)", Workload: name,
				Threads: fdt.Kernels[0].Decision.Threads, Cycles: fdt.TotalCycles,
				BU1Pct: 100 * fdt.Kernels[0].Decision.BusUtil1, TrainIters: fdt.Kernels[0].TrainIters,
			},
			AblationRow{
				Config: "hill-climb", Workload: name,
				Threads: hc.Kernels[0].Decision.Threads, Cycles: hc.TotalCycles,
				TrainIters: hc.Kernels[0].TrainIters,
			},
		)
	}
	return a
}

// AblationRefinedBAT compares plain BAT against the future-work
// refinement (Section 9): confirmation probes that correct Eq 5's
// linear-utilization assumption. The refinement should land at or
// above plain BAT's thread count on kernels whose utilization scales
// sub-linearly, buying execution time for a little extra training.
func AblationRefinedBAT(o Options) Ablation {
	a := Ablation{Title: "BAT vs refined BAT (future work, Section 9)"}
	for _, name := range []string{"ed", "convert", "transpose"} {
		plain := o.run(name, core.Control{Policy: core.BAT{}})
		refined := o.run(name, core.Control{Policy: core.RefinedBAT{}})
		a.Rows = append(a.Rows,
			AblationRow{
				Config: "BAT", Workload: name,
				Threads: plain.Kernels[0].Decision.Threads, Cycles: plain.TotalCycles,
				BU1Pct: 100 * plain.Kernels[0].Decision.BusUtil1, TrainIters: plain.Kernels[0].TrainIters,
			},
			AblationRow{
				Config: "BAT-refined", Workload: name,
				Threads: refined.Kernels[0].Decision.Threads, Cycles: refined.TotalCycles,
				BU1Pct: 100 * refined.Kernels[0].Decision.BusUtil1, TrainIters: refined.Kernels[0].TrainIters,
			},
		)
	}
	return a
}

// AblationPrefetcher adds a next-line L2 prefetcher (the paper's
// machine has none): a prefetching machine hides part of the miss
// latency, so a single thread issues lines faster and uses more of
// the bus — BAT measures the higher BU1 and correctly picks fewer
// threads to saturate the same bus. Another machine-configuration
// robustness story in the spirit of Fig 13.
func AblationPrefetcher(o Options) Ablation {
	a := Ablation{Title: "next-line L2 prefetcher (ED under BAT)"}
	off := o.Cfg
	on := o.Cfg
	on.Mem.PrefetchNextLine = true
	a.Rows = append(a.Rows,
		ablationRow(o, "no prefetcher (paper)", "ed", off, core.BAT{}),
		ablationRow(o, "next-line prefetcher", "ed", on, core.BAT{}),
	)
	return a
}

// AblationAdaptive compares train-once FDT against the Monitor-driven
// phase-adaptive pipeline on phaseshift, the synthetic kernel whose
// behaviour changes twice mid-execution (scalable -> CS-limited ->
// BW-limited). Train-once samples only the scalable prefix and locks
// its decision for the whole kernel (the fragility Section 9
// concedes); the adaptive controller re-trains at each detected phase
// boundary. One row per phase shows where the monitor re-decided and
// what it chose.
func AblationAdaptive(o Options) Ablation {
	a := Ablation{Title: "train-once vs phase-adaptive FDT (phaseshift)"}
	const name = "phaseshift"
	mp := core.DefaultMonitorParams()
	once := o.run(name, core.Control{Policy: core.Combined{}})
	ad := o.run(name, core.Control{Policy: core.Combined{}, Monitor: &mp})
	ok, ak := once.Kernels[0], ad.Kernels[0]
	a.Rows = append(a.Rows,
		AblationRow{
			Config: "train-once", Workload: name,
			Threads: ok.Decision.Threads, Cycles: once.TotalCycles, TrainIters: ok.TrainIters,
		},
		AblationRow{
			Config: fmt.Sprintf("adaptive (%d retrains)", ak.Retrains), Workload: name,
			Threads: ak.Decision.Threads, Cycles: ad.TotalCycles, TrainIters: ak.TrainIters,
		},
	)
	for _, p := range ak.Phases {
		cfg := fmt.Sprintf("  phase @%d", p.StartIter)
		if p.Trigger != "" {
			cfg += " (" + p.Trigger + ")"
		}
		a.Rows = append(a.Rows, AblationRow{
			Config: cfg, Workload: name,
			Threads: p.Decision.Threads, Cycles: p.Cycles, TrainIters: p.TrainIters,
		})
	}
	return a
}

// RunAblations executes the full ablation set, one parallel lane per
// study (each study is itself a handful of independent simulations).
func RunAblations(o Options) []Ablation {
	studies := []func(Options) Ablation{
		AblationRowBuffer,
		AblationCoherence,
		AblationStoreBuffer,
		AblationStabilityWindow,
		AblationTrainingOverhead,
		AblationRefinedBAT,
		AblationPrefetcher,
		AblationAdaptive,
	}
	out := make([]Ablation, len(studies))
	runner.Map(len(studies), func(i int) {
		out[i] = studies[i](o)
	})
	return out
}

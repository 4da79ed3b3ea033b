package core

import (
	"fdt/internal/machine"
	"fdt/internal/stats"
)

// Factory builds a fresh workload instance on a fresh machine. Every
// simulated execution needs its own machine and workload state, so
// sweeps and the oracle take factories rather than instances.
type Factory func(m *machine.Machine) Workload

// OracleResult is the best static configuration found by exhaustive
// offline search.
type OracleResult struct {
	// Threads is the fewest static threads within the tolerance of
	// the minimum execution time (Section 6.3 uses 1%).
	Threads int
	// Run is the execution with that static count.
	Run RunResult
	// Sweep holds every static run, in the order of the searched
	// counts.
	Sweep []RunResult
}

// Oracle implements the paper's best-static-policy comparison
// (Section 6.3): simulate s through runs at every thread count in
// counts (nil = 1..cores) and select the fewest threads within tolerance
// (fractional, e.g. 0.01) of the minimum execution time. This requires
// offline knowledge FDT does not need — it is the upper bound FDT is
// compared against in Fig 15.
func Oracle(runs *Runs, s RunSpec, counts []int, tolerance float64) OracleResult {
	if counts == nil {
		counts = make([]int, s.Cfg.Mem.Cores)
		for i := range counts {
			counts[i] = i + 1
		}
	}
	sweep := Sweep(runs, s, counts, nil)
	times := make([]uint64, len(sweep))
	for i, r := range sweep {
		times[i] = r.TotalCycles
	}
	idx := stats.FewestWithin(times, tolerance)
	return OracleResult{Threads: counts[idx], Run: sweep[idx], Sweep: sweep}
}

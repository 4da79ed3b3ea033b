// Per-kernel adaptation (the paper's Section 5.3 and Fig 15 story):
// MTwister runs two kernels back to back — a compute-bound generator
// that scales to all 32 cores and a bandwidth-bound Box-Muller
// transform that saturates early. No single static thread count is
// right for both; FDT retrains per kernel and beats even the oracle
// static policy on power.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

func main() {
	cfg := machine.DefaultConfig()
	info, _ := workloads.ByName("mtwister")
	factory := func(m *machine.Machine) core.Workload { return info.Factory(m) }

	fdt := core.RunPolicy(cfg, factory, core.Combined{})
	fmt.Println("MTwister under SAT+BAT: per-kernel decisions")
	for _, k := range fdt.Kernels {
		fmt.Printf("  %-22s bu1=%5.2f%%  -> %2d threads (%d cycles)\n",
			k.Kernel, 100*k.Decision.BusUtil1, k.Decision.Threads, k.Cycles)
	}
	fmt.Printf("  cycle-weighted average: %.1f threads\n\n", fdt.AvgThreads())

	// The oracle: the best single static thread count, found by
	// simulating every possibility offline (Section 6.3).
	oracle := core.Oracle(core.RunSpec{Cfg: cfg, Factory: factory}, nil, 0.01)
	fmt.Printf("Best static policy (offline search over 1..%d): %d threads\n",
		cfg.Mem.Cores, oracle.Threads)

	fmt.Printf("\n  %-26s %12s %8s\n", "policy", "exec cycles", "power")
	fmt.Printf("  %-26s %12d %8.2f\n", "oracle static", oracle.Run.TotalCycles, oracle.Run.AvgActiveCores)
	fmt.Printf("  %-26s %12d %8.2f\n", "SAT+BAT (per kernel)", fdt.TotalCycles, fdt.AvgActiveCores)
	fmt.Printf("\nFDT's power is %.0f%% below the oracle's: the oracle must pick one\n",
		100*(1-fdt.AvgActiveCores/oracle.Run.AvgActiveCores))
	fmt.Println("count for the whole program, FDT picks one per kernel.")
}

package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/runner"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

// AllWorkloads lists the twelve applications in the paper's Fig 14/15
// order: synchronization-limited, bandwidth-limited, scalable.
var AllWorkloads = []string{
	"pagemine", "isort", "gsearch", "ep",
	"ed", "convert", "transpose", "mtwister",
	"bt", "mg", "bscholes", "sconv",
}

// Fig14Row is one application's bars in Figure 14.
type Fig14Row struct {
	Workload string
	Class    workloads.Class
	// NormTime and NormPower are (SAT+BAT) relative to conventional
	// threading with as many threads as cores.
	NormTime  float64
	NormPower float64
	// Threads is the cycle-weighted average team size FDT chose.
	Threads float64
}

// Fig14 reproduces Figure 14: execution time and power of (SAT+BAT)
// normalized to 32 static threads, for all twelve applications plus
// the geometric mean. The paper reports gmean time 0.83 (-17%) and
// gmean power 0.41 (-59%).
type Fig14 struct {
	Rows       []Fig14Row
	GmeanTime  float64
	GmeanPower float64
}

// RunFig14 executes the experiment. The twelve workloads simulate in
// parallel on the runner's worker pool; the conventional-threading
// baselines and FDT runs are memoized, so Fig 8/12/15 reuse them.
func RunFig14(o Options) Fig14 {
	var f Fig14
	f.Rows = make([]Fig14Row, len(AllWorkloads))
	runner.Map(len(AllWorkloads), func(i int) {
		name := AllWorkloads[i]
		info, _ := workloads.ByName(name)
		base := runNamed(o, name, core.Static{})
		fdt := runNamed(o, name, core.Combined{})
		f.Rows[i] = Fig14Row{
			Workload:  name,
			Class:     info.Class,
			NormTime:  float64(fdt.TotalCycles) / float64(base.TotalCycles),
			NormPower: fdt.AvgActiveCores / base.AvgActiveCores,
			Threads:   fdt.AvgThreads(),
		}
	})
	var times, powers []float64
	for _, row := range f.Rows {
		times = append(times, row.NormTime)
		powers = append(powers, row.NormPower)
	}
	f.GmeanTime = stats.Gmean(times)
	f.GmeanPower = stats.Gmean(powers)
	return f
}

// String renders the figure.
func (f Fig14) String() string {
	var b strings.Builder
	b.WriteString("Figure 14: (SAT+BAT) normalized to 32 static threads\n")
	fmt.Fprintf(&b, "  %-10s %-12s %9s %9s %8s\n", "workload", "class", "norm.time", "norm.pwr", "threads")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %-12s %9.3f %9.3f %8.1f\n", r.Workload, r.Class, r.NormTime, r.NormPower, r.Threads)
	}
	fmt.Fprintf(&b, "  %-10s %-12s %9.3f %9.3f\n", "gmean", "", f.GmeanTime, f.GmeanPower)
	return b.String()
}

// Fig15Row is one application's bars in Figure 15.
type Fig15Row struct {
	Workload string
	// FDTTime/FDTPower are (SAT+BAT) normalized to 32 threads;
	// OracleTime/OraclePower are the best static policy's, likewise
	// normalized. OracleThreads is the static count the offline
	// search selected.
	FDTTime, OracleTime   float64
	FDTPower, OraclePower float64
	OracleThreads         int
}

// Fig15 reproduces Figure 15: (SAT+BAT) versus the oracle static
// policy (fewest threads within 1% of the minimum execution time,
// found by exhaustive offline simulation). The paper's headline: FDT
// matches the oracle everywhere and beats it on MTwister's power by
// 31%, because no single static count fits both MTwister kernels.
type Fig15 struct {
	Rows            []Fig15Row
	GmeanFDTTime    float64
	GmeanOracleTime float64
	GmeanFDTPower   float64
	GmeanOraclePwr  float64
}

// RunFig15 executes the experiment. It is the heaviest experiment in
// the suite: the oracle simulates every swept thread count for every
// application. The per-workload oracles fan out in parallel, and
// every run is memoized — the static sweeps behind Fig 8 and Fig 12
// and the FDT/baseline runs behind Fig 14 are recalled, not re-run.
func RunFig15(o Options) Fig15 {
	var f Fig15
	f.Rows = make([]Fig15Row, len(AllWorkloads))
	runner.Map(len(AllWorkloads), func(i int) {
		name := AllWorkloads[i]
		oracle := core.Oracle(o.Runs, o.spec(name, factory(name), core.Control{}), o.threads(), 0.01)
		fdt := runNamed(o, name, core.Combined{})
		base := runNamed(o, name, core.Static{})
		f.Rows[i] = Fig15Row{
			Workload:      name,
			FDTTime:       float64(fdt.TotalCycles) / float64(base.TotalCycles),
			OracleTime:    float64(oracle.Run.TotalCycles) / float64(base.TotalCycles),
			FDTPower:      fdt.AvgActiveCores / base.AvgActiveCores,
			OraclePower:   oracle.Run.AvgActiveCores / base.AvgActiveCores,
			OracleThreads: oracle.Threads,
		}
	})
	var ft, ot, fp, op []float64
	for _, row := range f.Rows {
		ft = append(ft, row.FDTTime)
		ot = append(ot, row.OracleTime)
		fp = append(fp, row.FDTPower)
		op = append(op, row.OraclePower)
	}
	f.GmeanFDTTime = stats.Gmean(ft)
	f.GmeanOracleTime = stats.Gmean(ot)
	f.GmeanFDTPower = stats.Gmean(fp)
	f.GmeanOraclePwr = stats.Gmean(op)
	return f
}

// String renders the figure.
func (f Fig15) String() string {
	var b strings.Builder
	b.WriteString("Figure 15: (SAT+BAT) vs oracle static policy (normalized to 32 threads)\n")
	fmt.Fprintf(&b, "  %-10s %9s %9s %9s %9s %8s\n",
		"workload", "fdt.time", "orc.time", "fdt.pwr", "orc.pwr", "orc.thr")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %9.3f %9.3f %9.3f %9.3f %8d\n",
			r.Workload, r.FDTTime, r.OracleTime, r.FDTPower, r.OraclePower, r.OracleThreads)
	}
	fmt.Fprintf(&b, "  %-10s %9.3f %9.3f %9.3f %9.3f\n",
		"gmean", f.GmeanFDTTime, f.GmeanOracleTime, f.GmeanFDTPower, f.GmeanOraclePwr)
	return b.String()
}

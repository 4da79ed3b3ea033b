package experiments

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

// SweepJobResult is the structured outcome of one sweep job: the
// full RunResult of every sweep point and policy placement. The fdtd
// daemon marshals it as a job's result payload, and fdtsweep's -json
// embeds it; because every RunResult either came from the simulator
// or JSON-round-tripped through the disk store, the payload is
// byte-stable across daemon restarts.
type SweepJobResult struct {
	Workload   string           `json:"workload"`
	Cores      int              `json:"cores"`
	Threads    []int            `json:"threads"`
	Sweep      []core.RunResult `json:"sweep,omitempty"`
	MinThreads int              `json:"min_threads,omitempty"`
	Policies   []core.RunResult `json:"policies,omitempty"`
}

// RunSweepJob sweeps a workload across static thread counts and then
// places the named policies, all through the process-wide run cache —
// the daemon-facing twin of the fdtsweep CLI path. counts may be
// empty when policies are given (policy placements only). Progress
// events flow to o.Progress: one per sweep point (with Threads set)
// and one per policy placement.
func RunSweepJob(o Options, workload string, counts []int, policies []string) (SweepJobResult, error) {
	info, ok := workloads.ByName(workload)
	if !ok {
		return SweepJobResult{}, fmt.Errorf("unknown workload %q", workload)
	}
	if len(counts) == 0 && len(policies) == 0 {
		return SweepJobResult{}, fmt.Errorf("empty job: no thread counts and no policies")
	}
	for _, n := range counts {
		if n < 1 {
			return SweepJobResult{}, fmt.Errorf("bad thread count %d", n)
		}
	}
	// The sweep points run static controllers; validating one checks
	// the machine, mode and power every run of the job shares.
	if err := o.spec(info.Name, info.Factory, core.Control{Policy: core.Static{}}).Validate(); err != nil {
		return SweepJobResult{}, err
	}
	specs := make([]core.RunSpec, len(policies))
	for i, pname := range policies {
		ctl, err := core.ParseController(pname)
		if err != nil {
			return SweepJobResult{}, err
		}
		specs[i] = o.spec(info.Name, info.Factory, ctl)
		if err := specs[i].Validate(); err != nil {
			return SweepJobResult{}, err
		}
	}

	res := SweepJobResult{
		Workload: info.Name,
		Cores:    o.Cfg.Mem.Cores,
		Threads:  counts,
	}
	if len(counts) > 0 {
		res.Sweep = sweepRuns(o, info.Name, counts)
		times := make([]uint64, len(res.Sweep))
		for i, r := range res.Sweep {
			times[i] = r.TotalCycles
		}
		idx, _ := stats.ArgMinUint(times)
		res.MinThreads = counts[idx]
	}
	for i, s := range specs {
		r := s.Run()
		o.emit(ProgressEvent{
			Workload: info.Name, Policy: r.Policy, Cycles: r.TotalCycles,
			Index: i, Total: len(policies),
		})
		res.Policies = append(res.Policies, r)
	}
	return res, nil
}

package experiments

import (
	"fmt"
	"sync"

	"fdt/internal/core"
	"fdt/internal/runner"
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

// RunSweepJob sweeps a workload across static thread counts and
// places the named policies, all through o.Runs —
// the daemon-facing twin of the fdtsweep CLI path. counts may be
// empty when policies are given (policy placements only). The sweep
// points and placements are independent runs, so they fan out
// together over the runner pool. Progress events flow to o.Progress
// one at a time, in completion order: one per sweep point (with
// Threads set) and one per policy placement, each with its Index in
// its batch.
func RunSweepJob(o Options, workload string, counts []int, policies []string) (SweepJobResult, error) {
	info, ok := workloads.ByName(workload)
	if !ok {
		return SweepJobResult{}, fmt.Errorf("unknown workload %q", workload)
	}
	if len(counts) == 0 && len(policies) == 0 {
		return SweepJobResult{}, fmt.Errorf("empty job: no thread counts and no policies")
	}
	specs := make([]core.RunSpec, 0, len(counts)+len(policies))
	for _, n := range counts {
		if n < 1 {
			return SweepJobResult{}, fmt.Errorf("bad thread count %d", n)
		}
		specs = append(specs, o.spec(info.Name, info.Factory, core.Control{Policy: core.Static{N: n}}))
	}
	// The sweep points run static controllers; validating one checks
	// the machine, mode and power every run of the job shares.
	if err := o.spec(info.Name, info.Factory, core.Control{Policy: core.Static{}}).Validate(); err != nil {
		return SweepJobResult{}, err
	}
	for _, pname := range policies {
		ctl, err := core.ParseController(pname)
		if err != nil {
			return SweepJobResult{}, err
		}
		s := o.spec(info.Name, info.Factory, ctl)
		if err := s.Validate(); err != nil {
			return SweepJobResult{}, err
		}
		specs = append(specs, s)
	}

	runs := make([]core.RunResult, len(specs))
	var mu sync.Mutex // serializes o.Progress within the job
	runner.Map(len(specs), func(i int) {
		r := specs[i].Run(o.Runs)
		runs[i] = r
		ev := ProgressEvent{Workload: info.Name, Policy: r.Policy, Cycles: r.TotalCycles}
		if i < len(counts) {
			ev.Threads, ev.Index, ev.Total = counts[i], i, len(counts)
		} else {
			ev.Index, ev.Total = i-len(counts), len(policies)
		}
		mu.Lock()
		defer mu.Unlock()
		o.emit(ev)
	})

	res := SweepJobResult{
		Workload: info.Name,
		Cores:    o.Cfg.Mem.Cores,
		Threads:  counts,
		Sweep:    runs[:len(counts):len(counts)],
		Policies: runs[len(counts):],
	}
	if len(counts) > 0 {
		times := make([]uint64, len(res.Sweep))
		for i, r := range res.Sweep {
			times[i] = r.TotalCycles
		}
		idx, _ := stats.ArgMinUint(times)
		res.MinThreads = counts[idx]
	}
	return res, nil
}

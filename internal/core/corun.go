package core

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/runner"
	"fdt/internal/thread"
)

// This file implements co-scheduled execution: N workloads running
// concurrently on one machine, each as its own thread team with its
// own controller pipeline, contending for the shared L3, bus and
// DRAM. This is the multiprogrammed scenario the paper leaves open —
// SAT/BAT decisions made while a co-runner occupies part of the
// socket — and the substrate of the interference experiment family.

// TeamSpec describes one tenant of a co-scheduled run: a registered
// workload (Workload doubles as the cache key, so it must name the
// workload and any non-default parameters) and the policy its private
// controller runs. A non-nil Monitor makes the tenant's controller
// phase-adaptive.
type TeamSpec struct {
	Workload string
	Factory  Factory
	Policy   Policy
	Monitor  *MonitorParams
}

// TeamResult is one tenant's outcome inside a co-scheduled run. The
// embedded RunResult is tenant-scoped: TotalCycles is this program's
// own completion time, AvgActiveCores its occupancy-attributed share
// of active cores, BusBusyCycles its attributed bus traffic.
type TeamResult struct {
	// Team is the tenant's label ("t0:pagemine").
	Team string
	RunResult
	// BusShare is the tenant's fraction of all bus busy cycles —
	// the attribution the "team-bus-partition" invariant audits.
	BusShare float64
}

// CorunResult is a complete co-scheduled execution: machine-global
// totals plus each tenant's own result.
type CorunResult struct {
	// Mapping names the thread-to-core mapping the run used.
	Mapping string
	// TotalCycles is the makespan (the slowest tenant's completion).
	TotalCycles uint64
	// AvgActiveCores is the machine-global power metric over the
	// makespan.
	AvgActiveCores float64
	// BusBusyCycles is total off-chip bus occupancy.
	BusBusyCycles uint64
	Teams         []TeamResult
}

// teamName labels tenant i of a co-run ("t0:pagemine").
func teamName(i int, workload string) string {
	return fmt.Sprintf("t%d:%s", i, workload)
}

// RunCorunOn co-schedules the specs on m — tenant i on partition i of
// len(specs) under the mapping — and runs all programs to completion.
// Each tenant gets an independent controller sampling its own team
// counters; the memory system sees their combined traffic. The
// machine must be fresh.
func RunCorunOn(m *machine.Machine, mp machine.Mapping, specs []TeamSpec, md Mode) (CorunResult, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = teamName(i, s.Workload)
	}
	teams, err := m.SplitTeams(mp, names)
	if err != nil {
		return CorunResult{}, err
	}
	start := m.Eng.Now()

	results := make([]RunResult, len(specs))
	mains := make([]thread.TeamMain, len(specs))
	for i, s := range specs {
		ctl := Control{Policy: s.Policy, Monitor: s.Monitor}.controller(md)
		results[i] = RunResult{Workload: s.Workload, Policy: ctl.Policy.Name()}
		w := s.Factory(m)
		mains[i] = thread.TeamMain{Team: teams[i], Main: ctl.runBody(w, &results[i])}
	}
	done := thread.RunTeams(m, mains)
	m.FinishCheck()

	out := CorunResult{
		Mapping:       mp.String(),
		TotalCycles:   m.Eng.Now() - start,
		BusBusyCycles: m.Ctrs.Counter(counters.BusBusyCycles).Read(),
	}
	out.AvgActiveCores = m.Power.AverageActiveCores(out.TotalCycles)
	for i, t := range teams {
		r := results[i]
		r.TotalCycles = done[i] - start
		if r.TotalCycles > 0 {
			r.AvgActiveCores = float64(t.ContextActiveCycles()) / float64(r.TotalCycles)
		}
		r.BusBusyCycles = t.Ctrs.Counter(counters.BusBusyCycles).Read()
		tr := TeamResult{Team: t.Name, RunResult: r}
		if out.BusBusyCycles > 0 {
			tr.BusShare = float64(r.BusBusyCycles) / float64(out.BusBusyCycles)
		}
		out.Teams = append(out.Teams, tr)
	}
	return out, nil
}

// corunCache memoizes co-scheduled runs (deterministic like all
// simulated executions; see runCache).
var corunCache runner.Cache[CorunResult]

// specKey renders one tenant's contribution to a co-run content
// address.
func (s TeamSpec) specKey(cfg machine.Config) string {
	k := s.Workload + "/" + policyKey(s.Policy, machineContexts(cfg))
	if s.Monitor != nil {
		k += fmt.Sprintf("/monitor/%+v", *s.Monitor)
	}
	return k
}

// RunCorun co-schedules the specs on a fresh machine of the given
// configuration, memoizing by (config, mapping, specs, mode).
func RunCorun(cfg machine.Config, mp machine.Mapping, specs []TeamSpec, md Mode) (CorunResult, error) {
	key := ConfigKey(cfg) + "|corun/" + mp.String()
	for _, s := range specs {
		key += "|" + s.specKey(cfg)
	}
	var err error
	res := corunCache.Do(key+md.key(), func() CorunResult {
		var r CorunResult
		r, err = RunCorunOn(machine.MustNew(cfg), mp, specs, md)
		return r
	})
	return res, err
}

// RunSoloOn is the co-run's control experiment: the machine is
// partitioned for nTeams tenants under the mapping exactly as a
// co-run would be, but only the tenant in the given slot runs — same
// core budget, same placement, empty machine otherwise. The
// difference between a tenant's solo and co-run results is pure
// interference.
func RunSoloOn(m *machine.Machine, mp machine.Mapping, nTeams, slot int, spec TeamSpec, md Mode) (TeamResult, error) {
	names := make([]string, nTeams)
	for i := range names {
		names[i] = teamName(i, "idle")
	}
	names[slot] = teamName(slot, spec.Workload)
	teams, err := m.SplitTeams(mp, names)
	if err != nil {
		return TeamResult{}, err
	}
	start := m.Eng.Now()

	ctl := Control{Policy: spec.Policy, Monitor: spec.Monitor}.controller(md)
	res := RunResult{Workload: spec.Workload, Policy: ctl.Policy.Name()}
	w := spec.Factory(m)
	done := thread.RunTeams(m, []thread.TeamMain{
		{Team: teams[slot], Main: ctl.runBody(w, &res)},
	})
	m.FinishCheck()

	t := teams[slot]
	res.TotalCycles = done[0] - start
	if res.TotalCycles > 0 {
		res.AvgActiveCores = float64(t.ContextActiveCycles()) / float64(res.TotalCycles)
	}
	res.BusBusyCycles = t.Ctrs.Counter(counters.BusBusyCycles).Read()
	tr := TeamResult{Team: t.Name, RunResult: res}
	if global := m.Ctrs.Counter(counters.BusBusyCycles).Read(); global > 0 {
		tr.BusShare = float64(res.BusBusyCycles) / float64(global)
	}
	return tr, nil
}

// soloCache memoizes solo-on-partition control runs.
var soloCache runner.Cache[TeamResult]

// RunSolo is RunSoloOn on a fresh machine, memoized by (config,
// mapping, partition geometry, spec, mode).
func RunSolo(cfg machine.Config, mp machine.Mapping, nTeams, slot int, spec TeamSpec, md Mode) (TeamResult, error) {
	key := fmt.Sprintf("%s|solo/%s/%d-of-%d|%s%s",
		ConfigKey(cfg), mp.String(), slot, nTeams, spec.specKey(cfg), md.key())
	var err error
	res := soloCache.Do(key, func() TeamResult {
		var r TeamResult
		r, err = RunSoloOn(machine.MustNew(cfg), mp, nTeams, slot, spec, md)
		return r
	})
	return res, err
}

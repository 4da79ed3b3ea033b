package core

import (
	"fmt"

	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// This file implements partitioned execution: N workloads running
// concurrently on one machine, each as its own thread team with its
// own controller pipeline, contending for the shared L3, bus and
// DRAM. This is the multiprogrammed scenario the paper leaves open —
// SAT/BAT decisions made while a co-runner occupies part of the
// socket — and the substrate of the interference experiment family.
// A RunSpec with Teams describes such a run; it shares the single
// run's key, validation table, run cache and disk store.

// Team is one tenant of a partitioned run: a workload key (like
// RunSpec.Workload, it names the workload and any non-default
// parameters), the workload's factory and the model-driven controller
// its private pipeline runs. A Team without a Factory — the zero Team —
// is an idle partition: it owns its share of the machine and runs
// nothing, which is how a solo-on-partition control run is described.
type Team struct {
	Workload string
	Factory  Factory
	Control  Control
}

func (t Team) idle() bool { return t.Factory == nil }

// key renders the team's fragment of a partitioned run's key.
func (t Team) key(cfg machine.Config) string {
	k := t.Workload + "/" + policyKey(t.Control.Policy, machineContexts(cfg))
	if t.Control.Monitor != nil {
		k += fmt.Sprintf("/monitor/%+v", *t.Control.Monitor)
	}
	return k
}

// TeamResult is one tenant's outcome inside a partitioned run. The
// embedded RunResult is tenant-scoped: TotalCycles is this program's
// own completion time, AvgActiveCores its occupancy-attributed share
// of active cores, BusBusyCycles its attributed bus traffic. An idle
// partition's result is zero apart from its label.
type TeamResult struct {
	// Team is the tenant's label ("t0:pagemine", "t1:idle").
	Team string
	RunResult
	// BusShare is the tenant's fraction of all bus busy cycles —
	// the attribution the "team-bus-partition" invariant audits.
	BusShare float64
}

// Solo is the co-run's control experiment for the tenant in slot: the
// machine is partitioned exactly as for the co-run, but every other
// team is idle — same core budget, same placement, empty machine
// otherwise. The difference between a tenant's solo and co-run results
// is pure interference.
func (s RunSpec) Solo(slot int) RunSpec {
	teams := make([]Team, len(s.Teams))
	teams[slot] = s.Teams[slot]
	s.Teams = teams
	return s
}

// teamsKey is a partitioned run's key: "corun/<mapping>" and every
// team, or for a solo (some team idle) "solo/<mapping>/<slot>-of-<n>"
// and the running team.
func (s RunSpec) teamsKey() string {
	key := ConfigKey(s.Cfg) + "|corun/" + s.Mapping.String()
	slot, running := 0, 0
	for i, t := range s.Teams {
		if !t.idle() {
			key += "|" + t.key(s.Cfg)
			slot, running = i, running+1
		}
	}
	if running < len(s.Teams) {
		key = fmt.Sprintf("%s|solo/%s/%d-of-%d|%s", ConfigKey(s.Cfg), s.Mapping, slot, len(s.Teams), s.Teams[slot].key(s.Cfg))
	}
	return key + s.Mode.key()
}

// runTeams partitions m under the mapping — team i on partition i of
// len(Teams) — and runs every non-idle team's program to completion.
// Each team gets an independent controller sampling its own team
// counters; the memory system sees their combined traffic.
func (s RunSpec) runTeams(m *machine.Machine) RunResult {
	names := make([]string, len(s.Teams))
	for i, t := range s.Teams {
		w := t.Workload
		if t.idle() {
			w = "idle"
		}
		names[i] = fmt.Sprintf("t%d:%s", i, w)
	}
	teams, err := m.SplitTeams(s.Mapping, names)
	if err != nil {
		panic(err) // Validate rejects infeasible mappings
	}
	start := m.Eng.Now()

	results := make([]RunResult, len(s.Teams))
	var mains []thread.TeamMain
	var slots []int
	for i, t := range s.Teams {
		if t.idle() {
			continue
		}
		ctl := t.Control.controller(s.Mode)
		results[i] = RunResult{Workload: t.Workload, Policy: ctl.Policy.Name()}
		w := t.Factory(m)
		mains = append(mains, thread.TeamMain{Team: teams[i], Main: ctl.runBody(w, &results[i])})
		slots = append(slots, i)
	}
	done := thread.RunTeams(m, mains)
	m.FinishCheck()
	for j, i := range slots {
		results[i].TotalCycles = done[j] - start
	}

	out := RunResult{
		Mapping:       s.Mapping.String(),
		TotalCycles:   m.Eng.Now() - start,
		BusBusyCycles: m.Ctrs.Counter(counters.BusBusyCycles).Read(),
		Teams:         make([]TeamResult, len(teams)),
	}
	out.AvgActiveCores = m.Power.AverageActiveCores(out.TotalCycles)
	for i, t := range teams {
		r := results[i]
		if r.TotalCycles > 0 {
			r.AvgActiveCores = float64(t.ContextActiveCycles()) / float64(r.TotalCycles)
		}
		r.BusBusyCycles = t.Ctrs.Counter(counters.BusBusyCycles).Read()
		out.Teams[i] = TeamResult{Team: t.Name, RunResult: r}
		if out.BusBusyCycles > 0 {
			out.Teams[i].BusShare = float64(r.BusBusyCycles) / float64(out.BusBusyCycles)
		}
	}
	return out
}

package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
)

// This file implements the co-runner interference family: the
// multiprogrammed scenario the paper leaves open. Two workloads are
// co-scheduled on one machine, each on its own team under a
// thread-to-core mapping, each run by its own controller — and every
// tenant is compared against its own solo control run on the *same*
// partition (same core budget, same placement, empty machine
// otherwise), so the reported slowdown is pure shared-resource
// interference, not a smaller core allowance.

// InterferenceRow compares one tenant's solo and co-run executions
// under one mapping x policy combination.
type InterferenceRow struct {
	// Workload is this tenant's kernel; Corunner the one it shared the
	// machine with.
	Workload, Corunner string
	Mapping            string
	Policy             string
	Adaptive           bool

	SoloCycles, CorunCycles uint64
	// SlowdownPct is the co-run's execution-time penalty over solo.
	SlowdownPct           float64
	SoloPower, CorunPower float64
	// SoloThreads/CorunThreads are cycle-weighted average team sizes —
	// where the controller's decisions landed with and without the
	// co-runner's traffic in its counters.
	SoloThreads, CorunThreads float64
	// SoloRetrains/CorunRetrains count Monitor-triggered re-trainings
	// (adaptive rows only).
	SoloRetrains, CorunRetrains int
	// CorunBusShare is the tenant's fraction of all bus traffic in the
	// co-run.
	CorunBusShare float64
}

// InterferencePair is one co-scheduled workload pair's full table.
type InterferencePair struct {
	A, B string
	Rows []InterferenceRow
}

// Interference is the experiment family's result.
type Interference struct {
	Pairs []InterferencePair
}

// interferencePairs are the family's co-run pairs: a CS-limited
// kernel against a scalable one (does PageMine's controller still
// throttle threads when MG floods nothing?) and two bandwidth-limited
// kernels (ED and Convert fighting over the one resource BAT models).
func interferencePairs() [][2]string {
	return [][2]string{
		{"pagemine", "mg"},
		{"ed", "convert"},
	}
}

// InterferenceCell runs a two-tenant co-run and both solo controls,
// producing one row per tenant, through runs.
func InterferenceCell(runs *core.Runs, co core.RunSpec) []InterferenceRow {
	res := co.Run(runs)
	rows := make([]InterferenceRow, len(co.Teams))
	for i, t := range co.Teams {
		solo := co.Solo(i).Run(runs).Teams[i]
		ct := res.Teams[i]
		row := InterferenceRow{
			Workload:      t.Workload,
			Corunner:      co.Teams[1-i].Workload,
			Mapping:       res.Mapping,
			Policy:        t.Control.Policy.Name(),
			Adaptive:      t.Control.Adaptive,
			SoloCycles:    solo.TotalCycles,
			CorunCycles:   ct.TotalCycles,
			SoloPower:     solo.AvgActiveCores,
			CorunPower:    ct.AvgActiveCores,
			SoloThreads:   solo.AvgThreads(),
			CorunThreads:  ct.AvgThreads(),
			CorunBusShare: ct.BusShare,
		}
		if solo.TotalCycles > 0 {
			row.SlowdownPct = 100 * (float64(ct.TotalCycles)/float64(solo.TotalCycles) - 1)
		}
		for _, k := range solo.Kernels {
			row.SoloRetrains += k.Retrains
		}
		for _, k := range ct.Kernels {
			row.CorunRetrains += k.Retrains
		}
		rows[i] = row
	}
	return rows
}

// interferenceCells lists the family's co-runs in report order: every
// pair x mapping x {train-once, adaptive} SAT+BAT. Nil pairs or
// mappings mean the family defaults — every mapping that can host both
// tenants.
func interferenceCells(o Options, pairs [][2]string, mappings []machine.Mapping) []core.RunSpec {
	if pairs == nil {
		pairs = interferencePairs()
	}
	if mappings == nil {
		mappings = o.Cfg.FeasibleMappings(2)
	}
	var cells []core.RunSpec
	for _, p := range pairs {
		for _, mp := range mappings {
			for _, adaptive := range []bool{false, true} {
				ctl := core.Control{Policy: core.Combined{}, Adaptive: adaptive}
				cells = append(cells, core.RunSpec{Cfg: o.Cfg, Mode: o.Mode, Mapping: mp, Teams: []core.Team{
					{Workload: p[0], Factory: factory(p[0]), Control: ctl},
					{Workload: p[1], Factory: factory(p[1]), Control: ctl},
				}})
			}
		}
	}
	return cells
}

// ValidateInterference checks every co-run RunInterferencePairs would
// simulate over the same arguments, before anything runs.
func ValidateInterference(o Options, pairs [][2]string, mappings []machine.Mapping) error {
	for _, co := range interferenceCells(o, pairs, mappings) {
		if err := co.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RunInterferencePairs executes the family over the given pairs and
// mappings (nil means the family defaults; explicit ones are the hook
// behind `fdtreport -corun` / `-mapping`): every cell, solo controls
// included. Cells simulate in parallel and memoize, like every other
// figure.
func RunInterferencePairs(o Options, pairs [][2]string, mappings []machine.Mapping) Interference {
	cells := interferenceCells(o, pairs, mappings)
	rows := make([][]InterferenceRow, len(cells))
	runner.Map(len(cells), func(i int) {
		rows[i] = InterferenceCell(o.Runs, cells[i])
	})

	var out Interference
	for _, r := range rows {
		if n := len(out.Pairs); n == 0 || out.Pairs[n-1].A != r[0].Workload || out.Pairs[n-1].B != r[0].Corunner {
			out.Pairs = append(out.Pairs, InterferencePair{A: r[0].Workload, B: r[0].Corunner})
		}
		p := &out.Pairs[len(out.Pairs)-1]
		p.Rows = append(p.Rows, r...)
	}
	return out
}

// String renders the family as per-pair tables.
func (f Interference) String() string {
	var b strings.Builder
	b.WriteString("Co-runner interference: solo-on-partition vs co-run, per mapping x policy\n")
	for _, p := range f.Pairs {
		fmt.Fprintf(&b, "\n %s + %s\n", p.A, p.B)
		fmt.Fprintf(&b, "  %-9s %-9s %-9s %8s %12s %12s %9s %8s %8s %8s %9s\n",
			"workload", "mapping", "policy", "adaptive", "solo cyc", "corun cyc",
			"slowdown", "thr solo", "thr co", "retrains", "bus share")
		for _, r := range p.Rows {
			fmt.Fprintf(&b, "  %-9s %-9s %-9s %8v %12d %12d %8.1f%% %8.1f %8.1f %3d->%-3d %8.1f%%\n",
				r.Workload, r.Mapping, r.Policy, r.Adaptive, r.SoloCycles, r.CorunCycles,
				r.SlowdownPct, r.SoloThreads, r.CorunThreads,
				r.SoloRetrains, r.CorunRetrains, 100*r.CorunBusShare)
		}
	}
	return b.String()
}

// CSV renders the family as CSV.
func (f Interference) CSV() string {
	var b strings.Builder
	b.WriteString("pair,workload,corunner,mapping,policy,adaptive,solo_cycles,corun_cycles,slowdown_pct,solo_power,corun_power,solo_threads,corun_threads,solo_retrains,corun_retrains,corun_bus_share\n")
	for _, p := range f.Pairs {
		for _, r := range p.Rows {
			fmt.Fprintf(&b, "%s+%s,%s,%s,%s,%s,%v,%d,%d,%.2f,%.4f,%.4f,%.2f,%.2f,%d,%d,%.4f\n",
				p.A, p.B, r.Workload, r.Corunner, r.Mapping, r.Policy, r.Adaptive,
				r.SoloCycles, r.CorunCycles, r.SlowdownPct, r.SoloPower, r.CorunPower,
				r.SoloThreads, r.CorunThreads, r.SoloRetrains, r.CorunRetrains, r.CorunBusShare)
		}
	}
	return b.String()
}

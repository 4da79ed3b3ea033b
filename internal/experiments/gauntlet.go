package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/runner"
	"fdt/internal/workloads"
)

// This file implements the robustness gauntlet: every controller —
// the paper's static and feedback policies, the adaptive pipeline,
// the hill-climbing baseline and the hybrid controller — scored
// against the static oracle on the adversarial workload family (the
// gauntlet rows of internal/workloads/synthetic.go), whose members
// each break one assumption behind Eq. 3/5/7. The paper's own figures
// show the policies where their assumptions hold; this table shows
// what each one costs where they don't.
//
// The family always executes exactly, whatever Options.Mode says:
// hill-climbing and hybrid probes time real chunks, and the oracle
// must be measured in the same mode as the contenders.

// GauntletRow is one (member, controller) score.
type GauntletRow struct {
	Workload string
	Policy   string
	Cycles   uint64
	// VsOracle is Cycles over the member's static-oracle cycles
	// (1.0 = matched the best static allocation).
	VsOracle float64
	Power    float64
	// AvgThreads is the cycle-weighted average team size.
	AvgThreads float64
	// Retrains counts monitor-triggered re-trainings; Fallbacks and
	// Recoveries count the hybrid state machine's transitions.
	Retrains, Fallbacks, Recoveries int
}

// GauntletMemberResult is one adversarial member's full scoreboard.
type GauntletMemberResult struct {
	// Workload names the member; Breaks the model assumption it
	// violates (from workloads.GauntletMembers).
	Workload, Breaks string
	// OracleThreads/OracleCycles locate the static oracle — the best
	// fixed allocation over the sweep grid.
	OracleThreads int
	OracleCycles  uint64
	Rows          []GauntletRow
}

// Gauntlet is the robustness experiment's result.
type Gauntlet struct {
	Members []GauntletMemberResult
}

// gauntletPolicies lists the scored controllers in table order.
func gauntletPolicies() []string {
	return []string{"serial", "sat", "bat", "sat+bat", "adaptive", "hill-climb", "hybrid"}
}

// RunGauntlet executes the family: every member swept for its static
// oracle, every controller scored against it. Runs fan out over the
// worker pool and memoize like every other figure.
func RunGauntlet(o Options) Gauntlet {
	members := workloads.GauntletMembers()
	policies := gauntletPolicies()
	exact := o
	exact.Mode = core.ExactMode()

	type job struct{ member, policy int }
	var jobs []job
	for mi := range members {
		for pi := range policies {
			jobs = append(jobs, job{mi, pi})
		}
	}
	runs := make([]core.RunResult, len(jobs))
	curves := make([]Curve, len(members))
	runner.Map(len(jobs)+len(members), func(i int) {
		if i < len(jobs) {
			ctl, err := core.ParseController(policies[jobs[i].policy])
			if err != nil {
				panic("experiments: " + err.Error())
			}
			runs[i] = exact.run(members[jobs[i].member].Name, ctl)
			return
		}
		curves[i-len(jobs)] = sweep(exact, members[i-len(jobs)].Name)
	})

	var out Gauntlet
	for mi, m := range members {
		mr := GauntletMemberResult{
			Workload:      m.Name,
			Breaks:        m.Breaks,
			OracleThreads: curves[mi].MinThreads,
			OracleCycles:  curves[mi].MinCycles,
		}
		for pi, pol := range policies {
			r := runs[mi*len(policies)+pi]
			row := GauntletRow{
				Workload:   m.Name,
				Policy:     pol,
				Cycles:     r.TotalCycles,
				VsOracle:   float64(r.TotalCycles) / float64(mr.OracleCycles),
				Power:      r.AvgActiveCores,
				AvgThreads: r.AvgThreads(),
			}
			for _, k := range r.Kernels {
				row.Retrains += k.Retrains
				row.Fallbacks += k.Fallbacks
				row.Recoveries += k.Recoveries
			}
			mr.Rows = append(mr.Rows, row)
		}
		out.Members = append(out.Members, mr)
	}
	return out
}

// Row finds one (member, policy) score.
func (g Gauntlet) Row(workload, policy string) (GauntletRow, bool) {
	for _, m := range g.Members {
		if m.Workload != workload {
			continue
		}
		for _, r := range m.Rows {
			if r.Policy == policy {
				return r, true
			}
		}
	}
	return GauntletRow{}, false
}

// Member finds one member's scoreboard.
func (g Gauntlet) Member(workload string) (GauntletMemberResult, bool) {
	for _, m := range g.Members {
		if m.Workload == workload {
			return m, true
		}
	}
	return GauntletMemberResult{}, false
}

// Best reports the member's best-scoring controller row.
func (m GauntletMemberResult) Best() GauntletRow {
	best := m.Rows[0]
	for _, r := range m.Rows[1:] {
		if r.Cycles < best.Cycles {
			best = r
		}
	}
	return best
}

// String renders the robustness table.
func (g Gauntlet) String() string {
	var b strings.Builder
	b.WriteString("Robustness gauntlet: controllers vs the static oracle on adversarial members\n")
	for _, m := range g.Members {
		fmt.Fprintf(&b, "\n %s — breaks: %s\n", m.Workload, m.Breaks)
		fmt.Fprintf(&b, "  oracle: %d threads, %d cycles\n", m.OracleThreads, m.OracleCycles)
		fmt.Fprintf(&b, "  %-11s %12s %9s %8s %8s %9s %6s %5s\n",
			"policy", "cycles", "vs.oracle", "power", "threads", "retrains", "fall", "rec")
		best := m.Best()
		for _, r := range m.Rows {
			marker := ""
			if r.Policy == best.Policy {
				marker = "  <- best"
			}
			fmt.Fprintf(&b, "  %-11s %12d %8.3fx %8.2f %8.1f %9d %6d %5d%s\n",
				r.Policy, r.Cycles, r.VsOracle, r.Power, r.AvgThreads,
				r.Retrains, r.Fallbacks, r.Recoveries, marker)
		}
	}
	return b.String()
}

// CSV renders the family as CSV.
func (g Gauntlet) CSV() string {
	var b strings.Builder
	b.WriteString("workload,breaks,oracle_threads,oracle_cycles,policy,cycles,vs_oracle,power,avg_threads,retrains,fallbacks,recoveries\n")
	for _, m := range g.Members {
		for _, r := range m.Rows {
			fmt.Fprintf(&b, "%s,%q,%d,%d,%s,%d,%.4f,%.4f,%.2f,%d,%d,%d\n",
				m.Workload, m.Breaks, m.OracleThreads, m.OracleCycles,
				r.Policy, r.Cycles, r.VsOracle, r.Power, r.AvgThreads,
				r.Retrains, r.Fallbacks, r.Recoveries)
		}
	}
	return b.String()
}

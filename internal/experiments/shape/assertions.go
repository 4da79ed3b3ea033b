package shape

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// Assertion is one named, machine-checked figure-shape claim. The
// Name is stable — EXPERIMENTS.md cites it next to the prose claim it
// encodes — and the Claim restates the prose so a failure message is
// self-contained. Heavy assertions re-run the expensive experiments
// (oracle sweeps, page-size sweeps) and are skipped under -short; the
// fast suite still covers every curve family.
type Assertion struct {
	Name  string
	Claim string
	Heavy bool
	Check func(o experiments.Options) error
}

// Assertions returns the full registry in figure order.
func Assertions() []Assertion {
	return []Assertion{
		{
			Name:  "fig2-pagemine-valley",
			Claim: "PageMine's execution time is U-shaped: it falls to an interior minimum at 2-8 threads and the 32-thread end rises at least 1.3x above it (Figure 2).",
			Check: func(o experiments.Options) error {
				return Valley(experiments.RunFig02(o).Curve, 2, 8, 1.3)
			},
		},
		{
			Name:  "fig4-ed-knee",
			Claim: "ED's execution time flattens (no wall: end within 1.15x of the minimum), its bus saturates first at 6-12 threads, and single-thread bus utilization is 10-20% (Figure 4).",
			Check: func(o experiments.Options) error {
				c := experiments.RunFig04(o).Curve
				if err := Flattens(c, 1.15); err != nil {
					return err
				}
				if err := KneeWithin(c, 0.95, 6, 12); err != nil {
					return err
				}
				if bu1 := c.Points[0].BusUtil; bu1 < 0.10 || bu1 > 0.20 {
					return fmt.Errorf("%s: single-thread bus utilization %.2f, outside [0.10, 0.20]", c.Workload, bu1)
				}
				return nil
			},
		},
		{
			Name:  "fig8-sat-in-valley",
			Claim: "On every CS-limited panel, SAT lands within 25% of the sweep minimum and chooses 2-12 threads (Figure 8).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				for _, p := range experiments.RunFig08(o).Panels {
					if err := WithinValley(p.Curve, p.SAT, 25); err != nil {
						return err
					}
					if n := decidedThreads(p.SAT.Run); n < 2 || n > 12 {
						return fmt.Errorf("%s: SAT chose %d threads, outside the CS-limited regime [2, 12]",
							p.Curve.Workload, n)
					}
				}
				return nil
			},
		},
		{
			Name:  "fig9-knee-monotone",
			Claim: "PageMine's best thread count grows with page size and SAT's choice tracks the trend (Figure 9).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				f := experiments.RunFig09(o)
				if err := NonDecreasing("fig9 best threads", f.BestThreads); err != nil {
					return err
				}
				return NonDecreasing("fig9 SAT threads", f.SATThreads)
			},
		},
		{
			Name:  "fig10-sat-adapts",
			Claim: "SAT picks more threads for 10KB pages than for 2.5KB pages and stays within 30% of each sweep minimum (Figure 10).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				f := experiments.RunFig10(o)
				small, large := decidedThreads(f.SATSmall.Run), decidedThreads(f.SATLarge.Run)
				if large <= small {
					return fmt.Errorf("fig10: SAT chose %d threads for 2.5KB and %d for 10KB — no adaptation", small, large)
				}
				if err := WithinValley(f.Small, f.SATSmall, 30); err != nil {
					return err
				}
				return WithinValley(f.Large, f.SATLarge, 30)
			},
		},
		{
			Name:  "fig12-bat-power",
			Claim: "On every BW-limited panel, BAT saves at least 30% power versus all-cores (ED: at least 60%) while staying within 45% of the minimum time (Figure 12).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				f := experiments.RunFig12(o)
				for _, p := range f.Panels {
					if p.PowerSavingPct < 30 {
						return fmt.Errorf("%s: BAT saves only %.0f%% power, want >= 30%%", p.Curve.Workload, p.PowerSavingPct)
					}
					if err := WithinValley(p.Curve, p.BAT, 45); err != nil {
						return err
					}
				}
				if ed := f.Panels[0]; ed.PowerSavingPct < 60 {
					return fmt.Errorf("ed: BAT power saving %.0f%%, want >= 60%% (paper: 78%%)", ed.PowerSavingPct)
				}
				return nil
			},
		},
		{
			Name:  "fig13-bat-tracks-bandwidth",
			Claim: "BAT chooses more threads on a 2x-bandwidth bus than on a 0.5x bus (Figure 13).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				f := experiments.RunFig13(o)
				half, double := decidedThreads(f.BATHalf.Run), decidedThreads(f.BATDouble.Run)
				if double <= half {
					return fmt.Errorf("fig13: BAT chose %d threads at 0.5x bandwidth and %d at 2x — no adaptation", half, double)
				}
				return nil
			},
		},
		{
			Name:  "fig14-class-bands",
			Claim: "FDT lands each workload class in its Figure-14 band: CS-limited time<0.9 & power<0.5, BW-limited power<0.65 & time<1.35, scalable time in [0.9, 1.15] & power>=0.85 at 32 threads; gmean time < 1.0 and gmean power < 0.6.",
			Check: func(o experiments.Options) error {
				f := experiments.RunFig14(o)
				for _, r := range f.Rows {
					var err error
					switch r.Class {
					case workloads.CSLimited:
						if r.NormTime > 0.9 || r.NormPower > 0.5 {
							err = fmt.Errorf("%s: CS-limited at time %.2f / power %.2f, want < 0.9 / < 0.5", r.Workload, r.NormTime, r.NormPower)
						}
					case workloads.BWLimited:
						if r.NormPower > 0.65 || r.NormTime > 1.35 {
							err = fmt.Errorf("%s: BW-limited at time %.2f / power %.2f, want < 1.35 / < 0.65", r.Workload, r.NormTime, r.NormPower)
						}
					case workloads.Scalable:
						if r.NormTime < 0.9 || r.NormTime > 1.15 || r.NormPower < 0.85 || r.Threads != 32 {
							err = fmt.Errorf("%s: scalable at time %.2f / power %.2f / %.0f threads, want ~1 / >= 0.85 / 32", r.Workload, r.NormTime, r.NormPower, r.Threads)
						}
					}
					if err != nil {
						return err
					}
				}
				if f.GmeanTime >= 1.0 {
					return fmt.Errorf("fig14: gmean time %.3f, want < 1.0 (paper: 0.83)", f.GmeanTime)
				}
				if f.GmeanPower >= 0.6 {
					return fmt.Errorf("fig14: gmean power %.3f, want < 0.6 (paper: 0.41)", f.GmeanPower)
				}
				return nil
			},
		},
		{
			Name:  "fig14-fdt-beats-parts",
			Claim: "Combined SAT+BAT is never materially slower than the better of SAT alone and BAT alone: per workload within 1.15x, and at most 1.05x on geometric mean (Section 5.3).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				prod, n := 1.0, 0
				for _, info := range workloads.All() {
					cycles := func(pol core.Policy) uint64 {
						s := core.RunSpec{Cfg: o.Cfg, Workload: info.Name, Factory: info.Factory, Control: core.Control{Policy: pol}, Mode: o.Mode}
						return s.Run(o.Runs).TotalCycles
					}
					fdt, sat, bat := cycles(core.Combined{}), cycles(core.SAT{}), cycles(core.BAT{})
					best := sat
					if bat < best {
						best = bat
					}
					r := float64(fdt) / float64(best)
					if r > 1.15 {
						return fmt.Errorf("%s: SAT+BAT takes %.2fx the better single policy, want <= 1.15x", info.Name, r)
					}
					prod *= r
					n++
				}
				if gmean := math.Pow(prod, 1/float64(n)); gmean > 1.05 {
					return fmt.Errorf("fig14: SAT+BAT gmean %.3fx the better single policy, want <= 1.05x", gmean)
				}
				return nil
			},
		},
		{
			Name:  "fig15-fdt-vs-oracle",
			Claim: "FDT's gmean time stays within 1.35x of the offline oracle's, and on MTwister FDT uses less power than any static choice (Figure 15).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				f := experiments.RunFig15(o)
				if err := RatioIn("fig15 gmean time vs oracle", f.GmeanFDTTime, f.GmeanOracleTime, 0, 1.35); err != nil {
					return err
				}
				for _, r := range f.Rows {
					if r.Workload == "mtwister" && r.FDTPower >= r.OraclePower {
						return fmt.Errorf("mtwister: FDT power %.3f not below oracle %.3f (the Figure-15 headline)", r.FDTPower, r.OraclePower)
					}
				}
				return nil
			},
		},
		{
			Name:  "adaptive-retrains-twice",
			Claim: "On the phased workload, the adaptive controller re-trains exactly at both behaviour changes: two retrains, three phases, triggered by nothing/critical-section drift/bus drift in that order (Section 6).",
			Check: func(o experiments.Options) error {
				info, ok := workloads.ByName("phaseshift")
				if !ok {
					return fmt.Errorf("phaseshift workload not registered")
				}
				adaptive, err := core.ParseController("adaptive")
				if err != nil {
					return err
				}
				r := core.RunSpec{Cfg: o.Cfg, Workload: "phaseshift", Factory: info.Factory, Control: adaptive, Mode: o.Mode}.Run(o.Runs)
				if len(r.Kernels) != 1 {
					return fmt.Errorf("phaseshift: %d kernels, want 1", len(r.Kernels))
				}
				k := r.Kernels[0]
				if k.Retrains != 2 || len(k.Phases) != 3 {
					return fmt.Errorf("phaseshift: %d retrains / %d phases, want 2 / 3", k.Retrains, len(k.Phases))
				}
				p := k.Phases
				if p[0].Trigger != "" || p[1].Trigger != "cs" || p[2].Trigger != "bus" {
					return fmt.Errorf("phaseshift: triggers %q/%q/%q, want \"\"/\"cs\"/\"bus\"", p[0].Trigger, p[1].Trigger, p[2].Trigger)
				}
				return nil
			},
		},
		{
			Name:  "corun-bat-decision-shift",
			Claim: "A co-runner's bus traffic shifts the Eq. 5 decision: both ED and Convert choose strictly fewer threads co-scheduled than solo on the identical partition, because the socket-wide bus observable reports the bandwidth the other tenant already consumed.",
			Check: func(o experiments.Options) error {
				co := corunPair(o, machine.MapPacked, "ed", "convert")
				if err := co.Validate(); err != nil {
					return err
				}
				res := co.Run(o.Runs)
				for i, t := range co.Teams {
					solo := co.Solo(i).Run(o.Runs).Teams[i]
					sn, cn := decidedThreads(solo.RunResult), decidedThreads(res.Teams[i].RunResult)
					if cn >= sn {
						return fmt.Errorf("%s: %d threads co-run, %d solo — co-runner traffic did not lower the BAT decision", t.Workload, cn, sn)
					}
				}
				return nil
			},
		},
		{
			Name:  "corun-adaptive-drift-retrain",
			Claim: "The adaptive Monitor treats co-runner interference as drift: a steady victim (bscholes) co-run with the delayed-onset bandwidth hog (busburst) re-trains on a \"bus\" trigger and throttles below its solo team size, while the same victim solo on the same partition never re-trains.",
			Check: func(o experiments.Options) error {
				// Exact mode regardless of o.Mode: sampled fast-forward
				// skips the monitored intervals in which the co-runner's
				// onset would be observed, so this interference path is
				// only exercised end to end by exact execution.
				co := corunPair(o, machine.MapPacked, "bscholes", "busburst")
				co.Mode = core.ExactMode()
				mon := core.DefaultMonitorParams()
				co.Teams[0].Control.Monitor = &mon
				if err := co.Validate(); err != nil {
					return err
				}
				k := co.Run(o.Runs).Teams[0].Kernels[0]
				if k.Retrains < 1 {
					return fmt.Errorf("bscholes co-run with busburst: %d retrains, want >= 1", k.Retrains)
				}
				throttled := false
				for _, p := range k.Phases[1:] {
					if p.Trigger != "bus" {
						return fmt.Errorf("bscholes: retrain trigger %q, want \"bus\" (the co-runner is a pure bandwidth hog)", p.Trigger)
					}
					if p.Decision.Threads < k.Phases[0].Decision.Threads {
						throttled = true
					}
				}
				if !throttled {
					return fmt.Errorf("bscholes: no post-onset phase ran below the initial %d threads", k.Phases[0].Decision.Threads)
				}
				if r := co.Solo(0).Run(o.Runs).Teams[0].Kernels[0].Retrains; r != 0 {
					return fmt.Errorf("bscholes solo: %d retrains, want 0 — the drift must come from the co-runner", r)
				}
				return nil
			},
		},
		{
			Name:  "gauntlet-hybrid-never-worse",
			Claim: "On every gauntlet member the hybrid controller's time-vs-oracle ratio is at most the worse of its two parents — the pure-model adaptive pipeline and pure-measurement hill-climbing — so seeding from the model and refining by measurement never combines their failure modes (robustness gauntlet).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				g := experiments.RunGauntlet(o)
				for _, m := range g.Members {
					hy, ad, hc, err := gauntletParents(g, m.Workload)
					if err != nil {
						return err
					}
					worst := ad.VsOracle
					if hc.VsOracle > worst {
						worst = hc.VsOracle
					}
					if hy.VsOracle > worst {
						return fmt.Errorf("%s: hybrid %.3fx oracle, worse than both parents (adaptive %.3fx, hill-climb %.3fx)",
							m.Workload, hy.VsOracle, ad.VsOracle, hc.VsOracle)
					}
				}
				return nil
			},
		},
		{
			Name:  "gauntlet-recovers-on-model-break",
			Claim: "When busstorm's periodic bursts break the trained bus expectation, the hybrid controller falls back to measured mode at least once and still finishes within 1.10x of the static oracle — the fallback path is exercised by a real model break and it works (robustness gauntlet).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				g := experiments.RunGauntlet(o)
				r, ok := g.Row("gauntlet/busstorm", "hybrid")
				if !ok {
					return fmt.Errorf("gauntlet/busstorm: no hybrid row")
				}
				if r.Fallbacks < 1 {
					return fmt.Errorf("gauntlet/busstorm: hybrid never fell back (%d fallbacks) — the model break went unnoticed", r.Fallbacks)
				}
				if r.VsOracle > 1.10 {
					return fmt.Errorf("gauntlet/busstorm: hybrid %.3fx oracle after fallback, want <= 1.10x", r.VsOracle)
				}
				return nil
			},
		},
		{
			Name:  "gauntlet-fallback-hysteresis-no-thrash",
			Claim: "On every gauntlet member the hybrid state machine transitions at most twice in each direction — the residual hysteresis band (fall back at High, recover at Low < High) prevents fallback/recover thrash even on adversarial inputs (robustness gauntlet).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				g := experiments.RunGauntlet(o)
				for _, m := range g.Members {
					r, ok := g.Row(m.Workload, "hybrid")
					if !ok {
						return fmt.Errorf("%s: no hybrid row", m.Workload)
					}
					if r.Fallbacks > 2 || r.Recoveries > 2 {
						return fmt.Errorf("%s: hybrid state machine thrashed — %d fallbacks / %d recoveries, want <= 2 each",
							m.Workload, r.Fallbacks, r.Recoveries)
					}
				}
				return nil
			},
		},
		{
			Name:  "pareto-dvfs-dominates-fixed",
			Claim: "At every tested budget at or below 75% of unconstrained peak power, on every charted workload, FDT+DVFS finishes no later than fixed-frequency FDT — the frequency dimension only ever enlarges the feasible set, and the model-trust margin returns the fixed-frequency decision outright when no lower state clearly wins (Pareto frontier).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				p := experiments.RunPareto(o)
				for _, fr := range p.Frontiers {
					for _, r := range fr.Rows {
						if r.BudgetFrac > 0.75 {
							continue
						}
						if r.DVFS.Cycles > r.Fixed.Cycles {
							return fmt.Errorf("%s at budget %.2f: FDT+DVFS %d cycles > FDT@nominal %d — the co-search lost to its own restriction",
								fr.Workload, r.BudgetFrac, r.DVFS.Cycles, r.Fixed.Cycles)
						}
					}
				}
				return nil
			},
		},
		{
			Name:  "pareto-dvfs-strict-win",
			Claim: "At the tightest budget (35% of peak), trading frequency for threads wins outright where the model says it should: FDT+DVFS beats fixed-frequency FDT by at least 10% on both the bandwidth-limited (ed) and scalable (mg) workloads (Pareto frontier).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				p := experiments.RunPareto(o)
				for _, name := range []string{"ed", "mg"} {
					fr, ok := p.Frontier(name)
					if !ok {
						return fmt.Errorf("pareto: no %s frontier", name)
					}
					r := fr.Rows[len(fr.Rows)-1]
					if r.BudgetFrac != 0.35 {
						return fmt.Errorf("%s: tightest charted budget is %.2f, want 0.35", name, r.BudgetFrac)
					}
					if float64(r.DVFS.Cycles) > 0.9*float64(r.Fixed.Cycles) {
						return fmt.Errorf("%s at budget 0.35: FDT+DVFS %d vs FDT@nominal %d cycles — no material win from the frequency dimension",
							name, r.DVFS.Cycles, r.Fixed.Cycles)
					}
				}
				return nil
			},
		},
		{
			Name:  "pareto-budget-respected",
			Claim: "Every charted point's measured average chip power — FDT+DVFS, fixed-frequency FDT, and the static oracle, at every budget level — stays within the declared 2% slack of its budget (the same bound the power-budget-compliance invariant enforces in-run) (Pareto frontier).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				p := experiments.RunPareto(o)
				for _, fr := range p.Frontiers {
					for _, r := range fr.Rows {
						for _, pt := range []experiments.ParetoPoint{r.DVFS, r.Fixed, r.Oracle} {
							if pt.Cycles == 0 {
								return fmt.Errorf("%s at budget %.2f: %s point missing", fr.Workload, r.BudgetFrac, pt.Policy)
							}
							if pt.AvgPower > r.Budget*1.02 {
								return fmt.Errorf("%s at budget %.2f: %s drew %.3f average power, budget %.3f (+2%% slack)",
									fr.Workload, r.BudgetFrac, pt.Policy, pt.AvgPower, r.Budget)
							}
						}
					}
				}
				return nil
			},
		},
		{
			Name:  "pareto-frontier-monotone",
			Claim: "Loosening the budget never hurts: the static oracle's time is exactly non-increasing in the budget (a superset feasible set), and the FDT+DVFS and fixed-frequency points are non-increasing within a 15% training-and-model-noise band (Pareto frontier).",
			Heavy: true,
			Check: func(o experiments.Options) error {
				p := experiments.RunPareto(o)
				for _, fr := range p.Frontiers {
					// Rows are ordered by descending budget.
					for i := 1; i < len(fr.Rows); i++ {
						hi, lo := fr.Rows[i-1], fr.Rows[i]
						if hi.Oracle.Cycles > lo.Oracle.Cycles {
							return fmt.Errorf("%s: oracle took %d cycles at budget %.2f but %d at tighter %.2f — a feasible point was missed",
								fr.Workload, hi.Oracle.Cycles, hi.BudgetFrac, lo.Oracle.Cycles, lo.BudgetFrac)
						}
						for _, pair := range [][2]experiments.ParetoPoint{{hi.DVFS, lo.DVFS}, {hi.Fixed, lo.Fixed}} {
							if float64(pair[0].Cycles) > 1.15*float64(pair[1].Cycles) {
								return fmt.Errorf("%s: %s took %d cycles at budget %.2f, over 1.15x its %d at tighter %.2f",
									fr.Workload, pair[0].Policy, pair[0].Cycles, hi.BudgetFrac, pair[1].Cycles, lo.BudgetFrac)
							}
						}
					}
				}
				return nil
			},
		},
		{
			Name:  "corun-mapping-matters",
			Claim: "Thread-to-core mapping is a first-order knob for co-scheduling: packed and scattered mappings of the same pagemine+mg pair differ in makespan by at least 10%.",
			Check: func(o experiments.Options) error {
				var cycles [2]uint64
				for i, mp := range []machine.Mapping{machine.MapPacked, machine.MapScattered} {
					co := corunPair(o, mp, "pagemine", "mg")
					if err := co.Validate(); err != nil {
						return err
					}
					cycles[i] = co.Run(o.Runs).TotalCycles
				}
				hi, lo := cycles[0], cycles[1]
				if lo > hi {
					hi, lo = lo, hi
				}
				if lo == 0 || float64(hi)/float64(lo) < 1.10 {
					return fmt.Errorf("pagemine+mg: packed %d vs scattered %d cycles — mappings within 10%%, no placement effect", cycles[0], cycles[1])
				}
				return nil
			},
		},
	}
}

// gauntletParents pulls one member's hybrid row and its two parent
// controllers' rows from the gauntlet scoreboard.
func gauntletParents(g experiments.Gauntlet, workload string) (hy, ad, hc experiments.GauntletRow, err error) {
	var ok bool
	if hy, ok = g.Row(workload, "hybrid"); !ok {
		return hy, ad, hc, fmt.Errorf("%s: no hybrid row", workload)
	}
	if ad, ok = g.Row(workload, "adaptive"); !ok {
		return hy, ad, hc, fmt.Errorf("%s: no adaptive row", workload)
	}
	if hc, ok = g.Row(workload, "hill-climb"); !ok {
		return hy, ad, hc, fmt.Errorf("%s: no hill-climb row", workload)
	}
	return hy, ad, hc, nil
}

// corunPair co-schedules two registered workloads under train-once
// SAT+BAT controllers on o's machine.
func corunPair(o experiments.Options, mp machine.Mapping, a, b string) core.RunSpec {
	team := func(name string) core.Team {
		info, ok := workloads.ByName(name)
		if !ok {
			panic(fmt.Sprintf("shape: unknown workload %q", name))
		}
		return core.Team{Workload: name, Factory: info.Factory, Control: core.Control{Policy: core.Combined{}}}
	}
	return core.RunSpec{Cfg: o.Cfg, Mode: o.Mode, Mapping: mp, Teams: []core.Team{team(a), team(b)}}
}

// ByName looks an assertion up by its stable name.
func ByName(name string) (Assertion, bool) {
	for _, a := range Assertions() {
		if a.Name == name {
			return a, true
		}
	}
	return Assertion{}, false
}

// decidedThreads reports the controller's headline decision — the
// first kernel's chosen team size.
func decidedThreads(r core.RunResult) int {
	if len(r.Kernels) == 0 {
		return 0
	}
	return r.Kernels[0].Decision.Threads
}

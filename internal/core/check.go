package core

import (
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// ctlCheck verifies the controller's pipeline against the paper's
// model equations: every Estimate decision must be re-derivable from
// the condensed training measurements that produced it (Eq. 3 for
// P_CS, Eq. 5 for P_BW, Eq. 7 for their combination), and the pipeline
// may only (re-)decide the team size at a decision point — on the
// master thread with no team forked. The zero value (no checker
// attached) is a no-op, mirroring ctlTrace.
type ctlCheck struct {
	ck *invariant.Checker
	on bool
}

// newCtlCheck builds the controller's check handle for one machine.
func newCtlCheck(m *machine.Machine) ctlCheck {
	if !m.Check.Enabled() {
		return ctlCheck{}
	}
	return ctlCheck{ck: m.Check, on: true}
}

// atDecision asserts the pipeline sits at a safe re-decision point
// before it trains or changes the team size.
func (cc ctlCheck) atDecision(c *thread.Ctx, cycle uint64) {
	if !cc.on {
		return
	}
	cc.ck.Pass(1)
	if !c.AtDecisionPoint() {
		cc.ck.Failf("ctl-decision-point", cycle,
			"pipeline (re-)deciding outside a decision point: thread %d of team %d", c.ID, c.Size)
	}
}

// hybridState asserts the legality of a hybrid controller state
// transition: a fallback (model -> measured) is only legal when the
// residual sits at or above the high threshold, and a recovery
// (measured -> model) only when it has decayed to or below the low
// one. Together with ResidualHigh > ResidualLow this is the hysteresis
// guarantee — no residual value permits both transitions, so the
// state machine cannot oscillate on one reading.
func (cc ctlCheck) hybridState(c *thread.Ctx, from, to string, res float64, hp HybridParams, cycle uint64) {
	if !cc.on {
		return
	}
	cc.ck.Pass(1)
	if !c.AtDecisionPoint() {
		cc.ck.Failf("ctl-hybrid-state", cycle,
			"hybrid %s->%s transition outside a decision point: thread %d of team %d",
			from, to, c.ID, c.Size)
		return
	}
	switch {
	case from == "model" && to == "measured":
		if res < hp.ResidualHigh {
			cc.ck.Failf("ctl-hybrid-state", cycle,
				"illegal fallback: residual %.4f below high threshold %.4f", res, hp.ResidualHigh)
		}
	case from == "measured" && to == "model":
		if res > hp.ResidualLow {
			cc.ck.Failf("ctl-hybrid-state", cycle,
				"illegal recovery: residual %.4f above low threshold %.4f", res, hp.ResidualLow)
		}
	default:
		cc.ck.Failf("ctl-hybrid-state", cycle, "unknown hybrid transition %s->%s", from, to)
	}
}

// decision re-derives the policy's decision from the condensed
// training measurements and checks the Estimate stage's output against
// it, component by component.
func (cc ctlCheck) decision(pol Model, tr TrainResult, cores int, d Decision, cycle uint64) {
	if !cc.on {
		return
	}
	wantPCS := 0
	if pol.WantsSAT() && tr.CSCycles > 0 {
		tNoCS := float64(tr.TotalCycles - tr.CSCycles)
		wantPCS = RoundSAT(OptimalThreadsCS(tNoCS, float64(tr.CSCycles)), cores)
	}
	wantPBW := 0
	if pol.WantsBAT() {
		if bu1 := tr.BusUtil1(); !tr.BWExcluded && bu1 > 0 && bu1*float64(cores) >= 1 {
			wantPBW = RoundBAT(SaturationThreads(bu1), cores)
		}
	}

	cc.ck.Pass(1)
	if d.PCS != wantPCS {
		cc.ck.Failf("ctl-eq3", cycle,
			"policy %s: P_CS = %d but Eq. 3 on (T_total %d, T_CS %d) gives %d",
			pol.Name(), d.PCS, tr.TotalCycles, tr.CSCycles, wantPCS)
	}
	cc.ck.Pass(1)
	if d.PBW != wantPBW {
		cc.ck.Failf("ctl-eq5", cycle,
			"policy %s: P_BW = %d but Eq. 5 on (BU_1 %.4f, excluded %v) gives %d",
			pol.Name(), d.PBW, tr.BusUtil1(), tr.BWExcluded, wantPBW)
	}

	want := cores
	switch {
	case pol.WantsSAT() && pol.WantsBAT():
		want = CombinedThreads(wantPCS, wantPBW, cores)
	case pol.WantsSAT():
		if wantPCS > 0 {
			want = wantPCS
		}
	case pol.WantsBAT():
		if wantPBW > 0 {
			want = wantPBW
		}
	}
	cc.ck.Pass(1)
	if d.Threads != want {
		cc.ck.Failf("ctl-eq7", cycle,
			"policy %s: decided %d threads but MIN(P_CS %d, P_BW %d, cores %d) re-derives %d",
			pol.Name(), d.Threads, wantPCS, wantPBW, cores, want)
	}
}

package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fdt/internal/machine"
	"fdt/internal/runner"
)

// Control names a run's controller: a policy, optionally monitored. A
// Model policy trains once or, with Adaptive set, is phase-adaptive; a
// measured policy (HillClimb, Hybrid, RefinedBAT) times real chunks and
// takes no monitor.
type Control struct {
	Policy   Policy
	Adaptive bool
}

// ParseController resolves a policy name; it is the one table of names
// every front end accepts. Measured controllers get default tuning.
func ParseController(name string) (Control, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "sat":
		return Control{Policy: SAT{}}, nil
	case "bat":
		return Control{Policy: BAT{}}, nil
	case "sat+bat", "combined", "fdt":
		return Control{Policy: Combined{}}, nil
	case "serial":
		return Control{Policy: Static{N: 1}}, nil
	case "static":
		return Control{Policy: Static{}}, nil
	case "adaptive":
		return Control{Policy: Combined{}, Adaptive: true}, nil
	case "hillclimb", "hill-climb":
		return Control{Policy: HillClimb{}}, nil
	case "hybrid":
		return Control{Policy: Hybrid{}}, nil
	}
	if rest, ok := strings.CutPrefix(n, "static:"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return Control{}, fmt.Errorf("bad static policy %q (want static:N, N >= 1)", name)
		}
		return Control{Policy: Static{N: k}}, nil
	}
	return Control{}, fmt.Errorf("unknown policy %q (want sat, bat, sat+bat, serial, static, static:N, adaptive, hillclimb or hybrid)", name)
}

// Name labels the controller in reports.
func (c Control) Name() string {
	switch {
	case c.Policy == nil:
		return ""
	case c.Adaptive:
		return "adaptive(" + c.Policy.Name() + ")"
	}
	return c.Policy.Name()
}

// measured reports whether c's policy times real chunks itself.
func (c Control) measured() bool {
	_, ok := c.Policy.(measuredPolicy)
	return ok
}

// RunSpec describes one simulated run. The CLIs build it from flags,
// the daemon from a job Spec and the experiments from their Options;
// it owns the run-cache key (Key), the table of allowed combinations
// (Validate) and the execution (Run).
//
// A run is single-team (Workload, Factory and Control name the
// program, which owns the whole machine) or partitioned (Teams, one
// per partition of the machine under Mapping: a co-run, or with every
// team but one idle, a solo on its partition).
type RunSpec struct {
	Cfg machine.Config
	// Workload is the workload's run-cache key: its registered name
	// plus any non-default parameters ("pagemine/pb=2560"). Empty
	// bypasses the cache, since a closure carries no identity.
	Workload string
	Factory  Factory
	Control  Control
	Mode     Mode
	// Power arms the budget-constrained (threads, frequency) search;
	// nil is the unconstrained one (see Controller.Power).
	Power *PowerParams
	// Training tunes every controller's training loop; nil is
	// DefaultTrainingParams.
	Training *TrainingParams
	// Mapping and Teams describe a partitioned run; see Team.
	Mapping machine.Mapping
	Teams   []Team
	// Trace and Check mark a run observed through RunOn. Validate and
	// ExactNote read them.
	Trace, Check bool
}

// dvfs mirrors Controller.dvfsOn.
func (s RunSpec) dvfs() bool { return s.Power != nil || !s.Cfg.Freq.Trivial() }

// Validate is the one compatibility table; its rules apply to the
// controller of a single-team run and to every running team of a
// partitioned one, and an infeasible partition is rejected before
// anything runs. Run assumes a valid spec.
func (s RunSpec) Validate() error {
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	corun := len(s.Teams) > 0
	ctls := []Control{s.Control}
	if corun {
		if s.Workload != "" || s.Factory != nil || s.Control.Name() != "" {
			return errors.New("a co-run names its workloads and controllers per team")
		}
		ctls = ctls[:0]
		for _, t := range s.Teams {
			if !t.idle() {
				ctls = append(ctls, t.Control)
			}
		}
		if len(ctls) != len(s.Teams) && len(ctls) != 1 {
			return fmt.Errorf("%d of %d teams run (want all for a co-run, or one for a solo)", len(ctls), len(s.Teams))
		}
	}
	for _, c := range ctls {
		switch {
		case c.Policy == nil:
			return errors.New("run needs a policy")
		case c.measured() && c.Adaptive:
			return fmt.Errorf("policy %q takes no monitor (its probes time real chunks)", c.Name())
		case s.Power != nil && s.Power.Budget < 0:
			return fmt.Errorf("bad power budget %g (want >= 0; 0 = unconstrained)", s.Power.Budget)
		case c.measured() && s.dvfs():
			return fmt.Errorf("policy %q does not support a power budget or P-state ladder (its probes time real chunks at nominal frequency)", c.Name())
		case c.measured() && corun:
			return fmt.Errorf("policy %q does not support co-runs (its probes own the whole machine)", c.Name())
		case corun && s.dvfs():
			return errors.New("co-runs do not support a power budget or P-state ladder (per-team power attribution is not modeled)")
		}
		if h, ok := c.Policy.(Hybrid); ok {
			if err := h.HP.WithDefaults().Validate(); err != nil {
				return err
			}
		}
	}
	return s.Cfg.CheckMapping(s.Mapping, len(s.Teams))
}

// ExactNote says why a run whose Mode asks for sampling must simulate
// every cycle anyway; "" when the mode stands. Run applies it and
// front ends print it.
func (s RunSpec) ExactNote() string {
	if !s.Mode.Sampled {
		return ""
	}
	c := s.Control
	switch {
	case s.Check:
		return "-check forces exact execution (invariant accounting needs every cycle simulated)"
	case s.Trace:
		return "-trace forces exact execution (a golden trace must record every event)"
	case c.measured():
		return "-policy " + c.Name() + " forces exact execution (its probes time real chunks)"
	case c.Adaptive && s.dvfs():
		return "-policy adaptive forces exact execution under a power budget or P-state ladder (monitor-driven retraining with frequency switching has no sampled-mode audit)"
	}
	return ""
}

// normalized resolves what a run actually executes: a forced-exact
// run runs exact, and a measured policy's probes run at nominal
// frequency under no budget, so it drops Power.
func (s RunSpec) normalized() RunSpec {
	if s.ExactNote() != "" {
		s.Mode = ExactMode()
	}
	if s.Control.measured() {
		s.Power = nil
	}
	return s
}

// Key is the run's content address in the run cache and the disk
// store: machine fingerprint, workload key and controller identity,
// then the monitor, power, training and mode fragments, each empty at
// its default so keys stay byte-identical to the releases before it.
// A run forced exact keys as exact. Empty when Workload, or a running team's
// Workload, is.
func (s RunSpec) Key() string {
	if !s.named() {
		return ""
	}
	return s.normalized().key()
}

// named reports whether every program the run executes has a workload
// key.
func (s RunSpec) named() bool {
	if len(s.Teams) == 0 {
		return s.Workload != ""
	}
	for _, t := range s.Teams {
		if !t.idle() && t.Workload == "" {
			return false
		}
	}
	return true
}

func (s RunSpec) key() string {
	if len(s.Teams) > 0 {
		return s.teamsKey()
	}
	c := s.Control
	key := ConfigKey(s.Cfg) + "|" + s.Workload + "|" + policyKey(c.Policy, machineContexts(s.Cfg))
	if c.Adaptive {
		key += "|" + monitorKey
	}
	if s.Power != nil {
		key += s.Power.key()
	}
	return key + s.trainingKey() + s.Mode.key()
}

// trainingKey is the training fragment of a run key: empty at
// DefaultTrainingParams.
func (s RunSpec) trainingKey() string {
	if s.Training == nil || *s.Training == DefaultTrainingParams() {
		return ""
	}
	return fmt.Sprintf("|train/%+v", *s.Training)
}

// controller builds the Controller that runs c under the spec's mode,
// power and training parameters.
func (s RunSpec) controller(c Control) *Controller {
	ctl := NewController(c.Policy)
	ctl.Adaptive, ctl.Mode, ctl.Power = c.Adaptive, s.Mode, s.Power
	ctl.Params = s.trainingParams()
	return ctl
}

// trainingParams resolves the spec's training parameters.
func (s RunSpec) trainingParams() TrainingParams {
	if s.Training != nil {
		return *s.Training
	}
	return DefaultTrainingParams()
}

// Run executes the spec on a fresh machine, memoized in runs under
// its Key (nil runs = the package default): the first call per key
// simulates, later ones return the result.
func (s RunSpec) Run(runs *Runs) RunResult {
	runs, s = runs.orDefault(), s.normalized()
	if !s.named() {
		return runs.simulate(s, false).res
	}
	return runs.do(s.key(), func() runEntry { return runs.compute(s) }).res
}

// RunOn executes the spec on a fresh caller-built machine, uncached:
// the entry point for runs observed by a tracer, checker, sampler or
// counter dump attached to m.
func (s RunSpec) RunOn(m *machine.Machine) RunResult { return s.normalized().runOn(m, nil) }

// runOn executes the normalized s on m; a single-team run's controller
// records its training into rec when rec is non-nil.
func (s RunSpec) runOn(m *machine.Machine, rec *runRecord) RunResult {
	if len(s.Teams) > 0 {
		return s.runTeams(m)
	}
	ctl := s.controller(s.Control)
	ctl.rec = rec
	return ctl.Run(m, s.Factory(m))
}

// RunPolicy runs the workload under a policy on a fresh machine,
// uncached.
func RunPolicy(cfg machine.Config, f Factory, pol Policy) RunResult {
	return RunSpec{Cfg: cfg, Factory: f, Control: Control{Policy: pol}}.RunOn(machine.MustNew(cfg))
}

// RunPolicyKeyed is RunPolicy memoized under workload key wkey in the
// package default. It exists for cmd/fdtbench until ROADMAP item 2
// moves those calls to RunSpec.
func RunPolicyKeyed(cfg machine.Config, wkey string, f Factory, pol Policy) RunResult {
	return RunSpec{Cfg: cfg, Workload: wkey, Factory: f, Control: Control{Policy: pol}}.Run(nil)
}

// Sweep runs s once per static thread count through runs, fanned out
// over the runner's worker pool; results are ordered like counts.
// done, when non-nil, sees each point as its worker completes it.
func Sweep(runs *Runs, s RunSpec, counts []int, done func(i int, r RunResult)) []RunResult {
	out := make([]RunResult, len(counts))
	runner.Map(len(counts), func(i int) {
		p := s
		p.Control = Control{Policy: Static{N: counts[i]}}
		out[i] = p.Run(runs)
		if done != nil {
			done(i, out[i])
		}
	})
	return out
}

package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fdt/internal/machine"
	"fdt/internal/runner"
)

// Control names a run's controller: a model-driven Policy, trained
// once or, with Monitor set, phase-adaptive; or one of the measured
// controllers, whose probes time real chunks. Exactly one of Policy,
// HillClimb and Hybrid is set.
type Control struct {
	Policy    Policy
	Monitor   *MonitorParams
	HillClimb *HillClimb
	Hybrid    *Hybrid
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
		mp := DefaultMonitorParams()
		return Control{Policy: Combined{}, Monitor: &mp}, nil
	case "hillclimb", "hill-climb":
		return Control{HillClimb: &HillClimb{}}, nil
	case "hybrid":
		return Control{Hybrid: &Hybrid{}}, nil
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
	case c.HillClimb != nil:
		return c.HillClimb.Name()
	case c.Hybrid != nil:
		return c.Hybrid.Name()
	case c.Policy == nil:
		return ""
	case c.Monitor != nil:
		return "adaptive(" + c.Policy.Name() + ")"
	}
	return c.Policy.Name()
}

func (c Control) measured() bool { return c.HillClimb != nil || c.Hybrid != nil }

// controller builds the pipeline of a model-driven Control.
func (c Control) controller(md Mode) *Controller {
	ctl := NewController(c.Policy)
	ctl.Monitor = c.Monitor
	ctl.Mode = md
	return ctl
}

// RunSpec describes one simulated run. The CLIs build it from flags,
// the daemon from a job Spec and the experiments from their Options;
// it owns the run-cache key (Key), the table of allowed combinations
// (Validate) and the execution (Run).
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
	// Corun marks one tenant of a co-run (executed by RunCorun), and
	// Trace and Check a run observed through RunOn. Validate and
	// ExactNote read them.
	Corun, Trace, Check bool
}

// dvfs mirrors Controller.dvfsOn.
func (s RunSpec) dvfs() bool { return s.Power != nil || !s.Cfg.Freq.Trivial() }

// Validate is the one compatibility table. Run assumes a valid spec.
func (s RunSpec) Validate() error {
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	c := s.Control
	switch {
	case (c.Policy != nil) == c.measured() || c.HillClimb != nil && c.Hybrid != nil:
		return errors.New("run needs exactly one controller: a policy, hill-climb or hybrid")
	case s.Power != nil && s.Power.Budget < 0:
		return fmt.Errorf("bad power budget %g (want >= 0; 0 = unconstrained)", s.Power.Budget)
	case c.measured() && s.dvfs():
		return fmt.Errorf("policy %q does not support a power budget or P-state ladder (its probes time real chunks at nominal frequency)", c.Name())
	case c.measured() && s.Corun:
		return fmt.Errorf("policy %q does not support co-runs (its probes own the whole machine)", c.Name())
	case s.Corun && s.dvfs():
		return errors.New("co-runs do not support a power budget or P-state ladder (per-team power attribution is not modeled)")
	case c.Hybrid != nil:
		return c.Hybrid.HP.WithDefaults().Validate()
	}
	return nil
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
	case c.HillClimb != nil:
		return "-policy hillclimb forces exact execution (its probes time real chunks)"
	case c.Hybrid != nil:
		return "-policy hybrid forces exact execution (its refinement probes time real chunks)"
	case c.Monitor != nil && s.dvfs():
		return "-policy adaptive forces exact execution under a power budget or P-state ladder (monitor-driven retraining with frequency switching has no sampled-mode audit)"
	}
	return ""
}

func (s RunSpec) normalized() RunSpec {
	if s.ExactNote() != "" {
		s.Mode = ExactMode()
	}
	return s
}

// Key is the run's content address in the run cache and the disk
// store: machine fingerprint, workload key and controller identity,
// then the monitor, power and mode fragments, each empty at its
// default so keys stay byte-identical to the releases before it. A run
// forced exact keys as exact. Empty when Workload is.
func (s RunSpec) Key() string {
	if s.Workload == "" {
		return ""
	}
	return s.normalized().key()
}

func (s RunSpec) key() string {
	c := s.Control
	prefix := ConfigKey(s.Cfg) + "|" + s.Workload + "|"
	switch {
	case c.HillClimb != nil:
		return prefix + fmt.Sprintf("policy/hill-climb/%+v", *c.HillClimb)
	case c.Hybrid != nil:
		seed := "combined"
		if c.Hybrid.Policy != nil {
			seed = c.Hybrid.Policy.Name()
		}
		return prefix + fmt.Sprintf("policy/hybrid/seed=%s/%+v|train/%+v", seed, c.Hybrid.HP, c.Hybrid.Params)
	}
	key := prefix + policyKey(c.Policy, machineContexts(s.Cfg))
	if c.Monitor != nil {
		key += fmt.Sprintf("|monitor/%+v", *c.Monitor)
	}
	if s.Power != nil {
		key += s.Power.key()
	}
	return key + s.Mode.key()
}

// Run executes the spec on a fresh machine, memoized under its Key:
// the first call per key simulates, later ones return the result.
func (s RunSpec) Run() RunResult {
	s = s.normalized()
	if s.Workload == "" {
		return s.simulate()
	}
	return runCache.Do(s.key(), s.simulate)
}

func (s RunSpec) simulate() RunResult { return s.RunOn(machine.MustNew(s.Cfg)) }

// RunOn executes the spec on a fresh caller-built machine, uncached:
// the entry point for runs observed by a tracer, checker, sampler or
// counter dump attached to m.
func (s RunSpec) RunOn(m *machine.Machine) RunResult {
	s = s.normalized()
	w := s.Factory(m)
	switch c := s.Control; {
	case c.HillClimb != nil:
		return c.HillClimb.Run(m, w)
	case c.Hybrid != nil:
		return c.Hybrid.Run(m, w)
	}
	ctl := s.Control.controller(s.Mode)
	ctl.Power = s.Power
	return ctl.Run(m, w)
}

// RunPolicy runs the workload under a policy on a fresh machine.
func RunPolicy(cfg machine.Config, f Factory, pol Policy) RunResult {
	return RunSpec{Cfg: cfg, Factory: f, Control: Control{Policy: pol}}.Run()
}

// RunPolicyKeyed is RunPolicy memoized under workload key wkey.
func RunPolicyKeyed(cfg machine.Config, wkey string, f Factory, pol Policy) RunResult {
	return RunSpec{Cfg: cfg, Workload: wkey, Factory: f, Control: Control{Policy: pol}}.Run()
}

// Sweep runs s once per static thread count, fanned out over the
// runner's worker pool; results are ordered like counts. done, when
// non-nil, sees each point as its worker completes it.
func Sweep(s RunSpec, counts []int, done func(i int, r RunResult)) []RunResult {
	out := make([]RunResult, len(counts))
	runner.Map(len(counts), func(i int) {
		p := s
		p.Control = Control{Policy: Static{N: counts[i]}}
		out[i] = p.Run()
		if done != nil {
			done(i, out[i])
		}
	})
	return out
}

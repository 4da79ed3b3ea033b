package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// Spec is a submitted job: workload x machine config x policy x mode
// x sweep range, or a whole named experiment from the report registry.
type Spec struct {
	// Client identifies the submitter for admission fairness; empty
	// means "anon". It is an accounting label, not authentication.
	Client string `json:"client,omitempty"`
	// Kind selects the job shape: "sweep" (default when Workload is
	// set) or "experiment" (default when Experiment is set).
	Kind string `json:"kind,omitempty"`
	// Workload names a registered workload for sweep jobs.
	Workload string `json:"workload,omitempty"`
	// Threads are the static thread counts to sweep; may be empty
	// when Policies is not.
	Threads []int `json:"threads,omitempty"`
	// Policies are placed on the curve after the sweep; any name
	// core.ParseController accepts.
	Policies []string `json:"policies,omitempty"`
	// Experiment names a report-registry experiment ("fig2" ...
	// "gauntlet") for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Cores and Bandwidth shape the simulated machine (default 32
	// cores, 1.0 bandwidth).
	Cores     int     `json:"cores,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Mode is "exact" (default) or "sampled".
	Mode string `json:"mode,omitempty"`
	// PowerBudget caps average chip power in nominal-active-core
	// units (0 = unconstrained). A positive budget with no explicit
	// ladder implies the default four-state ladder.
	PowerBudget float64 `json:"power_budget,omitempty"`
	// FreqLadderMHz is the P-state ladder as a strictly descending
	// MHz list, nominal first (empty = single-frequency machine).
	FreqLadderMHz []int `json:"freq_ladder_mhz,omitempty"`
}

const (
	KindSweep      = "sweep"
	KindExperiment = "experiment"
)

// normalize fills defaults and validates everything that can be
// checked without simulating; the HTTP layer maps an error to 400.
func (s *Spec) normalize() error {
	if s.Client == "" {
		s.Client = "anon"
	}
	if s.Kind == "" {
		if s.Experiment != "" {
			s.Kind = KindExperiment
		} else {
			s.Kind = KindSweep
		}
	}
	if s.Cores == 0 {
		s.Cores = machine.DefaultConfig().Mem.Cores
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = 1.0
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("bad bandwidth %g", s.Bandwidth)
	}
	switch s.Mode {
	case "", "exact":
		s.Mode = "exact"
	case "sampled":
	default:
		return fmt.Errorf("bad mode %q (want exact or sampled)", s.Mode)
	}
	for _, n := range s.Threads {
		if n < 1 || n > s.Cores*machine.DefaultConfig().SMTContexts {
			return fmt.Errorf("bad thread count %d for %d cores", n, s.Cores)
		}
	}
	// The static sweep controller stands in for jobs that place no
	// policy: validating it checks the machine, mode and power every
	// run of the job shares.
	rs, err := s.runSpec()
	if err != nil {
		return err
	}
	if err := rs.Validate(); err != nil {
		return err
	}
	switch s.Kind {
	case KindSweep:
		if s.Experiment != "" {
			return fmt.Errorf("sweep job must not name an experiment")
		}
		if _, ok := workloads.ByName(s.Workload); !ok {
			return fmt.Errorf("unknown workload %q", s.Workload)
		}
		if len(s.Threads) == 0 && len(s.Policies) == 0 {
			return fmt.Errorf("empty job: no threads and no policies")
		}
		for _, p := range s.Policies {
			if rs.Control, err = core.ParseController(p); err != nil {
				return err
			}
			if err := rs.Validate(); err != nil {
				return err
			}
		}
	case KindExperiment:
		if s.Workload != "" || len(s.Policies) != 0 {
			return fmt.Errorf("experiment job carries only an experiment name")
		}
		if _, ok := experiments.LookupExperiment(experiments.DefaultOptions(), s.Experiment); !ok {
			return fmt.Errorf("unknown experiment %q", s.Experiment)
		}
	default:
		return fmt.Errorf("bad kind %q (want sweep or experiment)", s.Kind)
	}
	return nil
}

// runSpec describes the job's runs — machine, mode and power — with
// the static sweep controller. The ladder and budget resolve like the
// CLIs' -freq-ladder and -power-budget: the MHz list must form a valid
// ladder, and a positive budget with no ladder implies the default.
func (s Spec) runSpec() (core.RunSpec, error) {
	fc, err := machine.LadderFromMHz(s.FreqLadderMHz)
	if err != nil {
		return core.RunSpec{}, err
	}
	if fc, err = machine.ResolveDVFS(s.PowerBudget, fc); err != nil {
		return core.RunSpec{}, err
	}
	rs := core.RunSpec{
		Cfg:      machine.DefaultConfig().WithCores(s.Cores).WithBandwidth(s.Bandwidth).WithFreq(fc),
		Workload: s.Workload,
		Control:  core.Control{Policy: core.Static{}},
	}
	if s.Mode == "sampled" {
		rs.Mode = core.SampledMode()
	}
	if !fc.Trivial() {
		rs.Power = &core.PowerParams{Budget: s.PowerBudget, LockState: -1}
	}
	return rs, nil
}

// options builds the experiment options a job executes under.
func (s Spec) options() experiments.Options {
	rs, _ := s.runSpec() // validated by normalize
	o := experiments.Options{Cfg: rs.Cfg, Mode: rs.Mode, Power: rs.Power}
	if s.Kind == KindExperiment && len(s.Threads) > 0 {
		o.SweepThreads = s.Threads
	}
	return o
}

// Job statuses, in lifecycle order.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Event is one progress notification on a job's stream.
type Event struct {
	// Type: "queued", "running", "point" (one sweep point or policy
	// placement finished), "done", "error".
	Type string `json:"type"`
	Job  string `json:"job"`
	// Point payload (Type "point").
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Index    int    `json:"index,omitempty"`
	Total    int    `json:"total,omitempty"`
	// Err carries the failure message (Type "error").
	Err string `json:"error,omitempty"`
}

// Job is one admitted submission and its lifecycle state.
type Job struct {
	ID   string
	Spec Spec

	mu        sync.Mutex
	status    string
	errMsg    string
	result    json.RawMessage
	submitted time.Time
	started   time.Time
	finished  time.Time
	// events is the job's append-only log: published entries are
	// never rewritten, so a reader may keep a sub-slice of it after
	// unlocking. notify, made on demand by a waiting reader, is closed
	// by the next publish or by finish.
	events []Event
	notify chan struct{}
}

func newJob(id string, spec Spec) *Job {
	return &Job{
		ID: id, Spec: spec,
		status:    StatusQueued,
		submitted: time.Now(),
		events:    []Event{{Type: StatusQueued, Job: id}},
	}
}

// appendEvent logs ev and wakes every waiting reader. j.mu is held.
func (j *Job) appendEvent(ev Event) {
	j.events = append(j.events, ev)
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

// publish appends an event to the job's log. It never blocks the
// dispatcher, and no reader can miss an event: each reads the log at
// its own pace.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEvent(ev)
}

// finish moves the job to its terminal state and logs the terminal
// event.
func (j *Job) finish(result json.RawMessage, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
		j.appendEvent(Event{Type: "error", Job: j.ID, Err: j.errMsg})
		return
	}
	j.status = StatusDone
	j.result = result
	j.appendEvent(Event{Type: "done", Job: j.ID})
}

func (j *Job) start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publish(Event{Type: StatusRunning, Job: j.ID})
}

// tail returns the logged events from index next on, without copying.
// final reports that the log ends with the terminal event; otherwise
// wait is closed once another event is logged.
func (j *Job) tail(next int) (evs []Event, final bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	evs = j.events[next:n:n]
	if j.status == StatusDone || j.status == StatusFailed {
		return evs, true, nil
	}
	if j.notify == nil {
		j.notify = make(chan struct{})
	}
	return evs, false, j.notify
}

// View is a job's externally visible snapshot.
type View struct {
	ID        string          `json:"id"`
	Spec      Spec            `json:"spec"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Events    int             `json:"events"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Snapshot captures the job's current state. withResult=false elides
// the (potentially large) result payload for listings.
func (j *Job) Snapshot(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Spec: j.Spec, Status: j.status, Error: j.errMsg,
		Submitted: j.submitted, Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// Status reports the job's current lifecycle state.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the terminal result payload (nil until done).
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

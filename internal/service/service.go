package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/runner"
	"fdt/internal/store"
)

// ErrDraining rejects submissions once shutdown has begun.
var ErrDraining = errors.New("service: draining")

// retainFinished is how many finished jobs the registry keeps, so the
// daemon's memory does not grow with the number of jobs it has
// served. Queued and running jobs are always kept.
const retainFinished = 1024

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job may itself fan sweep points out over the runner pool;
	// identical in-flight runs across jobs collapse into one
	// simulation via the run cache's single-flight keys.
	Workers int
	// QueueCap bounds the admission queue (default 64, <0 unbounded).
	QueueCap int
	// Runs memoizes every job's runs and backs the cache, store and
	// energy counters of Stats (nil = the core package default).
	Runs *core.Runs
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0 // queue treats 0 as unbounded
	}
	return c
}

// Service owns the job registry, the admission queue, and the worker
// pool that dispatches jobs through the experiments layer.
type Service struct {
	cfg Config
	q   *queue

	mu sync.Mutex
	// jobs holds every queued and running job plus the retained
	// finished ones. IDs "job-N" are issued densely, so a missing
	// N <= nextID was dropped.
	jobs   map[string]*Job
	nextID uint64
	// finished lists the retained finished jobs' IDs, oldest first;
	// at most retain of them.
	finished []string
	retain   int

	wg       sync.WaitGroup
	draining atomic.Bool

	done   atomic.Uint64
	failed atomic.Uint64
}

// testHookDispatch, when set, is called by the dispatchers of the
// services New builds with each job they take, before running it.
var testHookDispatch func(*Job)

// New starts a service with cfg.Workers dispatcher goroutines.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, q: newQueue(cfg.QueueCap), jobs: map[string]*Job{}, retain: retainFinished}
	hook := testHookDispatch
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.q.pop()
				if !ok {
					return
				}
				if hook != nil {
					hook(j)
				}
				s.runJob(j)
			}
		}()
	}
	return s
}

// Submit validates, registers, and enqueues a job. The returned job is
// live: poll Snapshot, or follow its events over GET
// /v1/jobs/{id}/stream.
func (s *Service) Submit(spec Spec) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	// Register and enqueue under s.mu, so a rejected job never takes
	// an ID and the IDs stay dense.
	s.mu.Lock()
	defer s.mu.Unlock()
	j := newJob(fmt.Sprintf("job-%d", s.nextID+1), spec)
	if err := s.q.push(j); err != nil {
		return nil, err
	}
	s.nextID++
	s.jobs[j.ID] = j
	return j, nil
}

// Job looks a registered job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	j, _ := s.lookup(id)
	return j, j != nil
}

// lookup finds a registered job. When there is none, gone reports
// whether the ID was issued, so its finished job has been dropped
// (410, where any other ID is 404).
func (s *Service) lookup(id string) (j *Job, gone bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, false
	}
	digits, ok := strings.CutPrefix(id, "job-")
	n, err := strconv.ParseUint(digits, 10, 64)
	return nil, ok && err == nil && n >= 1 && n <= s.nextID && strconv.FormatUint(n, 10) == digits
}

// finish records j's terminal state and retires it: j joins the
// retained finished jobs, and the oldest one beyond retain is dropped.
// Both happen under s.mu, so whoever sees j's terminal event also sees
// the registry and the counters already updated.
func (s *Service) finish(j *Job, result json.RawMessage, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.failed.Add(1)
	} else {
		s.done.Add(1)
	}
	j.finish(result, err)
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > s.retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// runJob executes one job and publishes its lifecycle.
func (s *Service) runJob(j *Job) {
	j.start()
	o := j.Spec.options()
	o.Runs = s.cfg.Runs
	o.Progress = func(ev experiments.ProgressEvent) {
		j.publish(Event{
			Type: "point", Job: j.ID,
			Workload: ev.Workload, Policy: ev.Policy, Threads: ev.Threads,
			Cycles: ev.Cycles, Index: ev.Index, Total: ev.Total,
		})
	}

	result, err := s.execute(j, o)
	var blob json.RawMessage
	if err == nil {
		blob, err = json.Marshal(result)
	}
	s.finish(j, blob, err)
}

// execute runs the job body (panics from the simulator surface as
// job failures, not daemon crashes).
func (s *Service) execute(j *Job, o experiments.Options) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	switch j.Spec.Kind {
	case KindSweep:
		return experiments.RunSweepJob(o, j.Spec.Workload, j.Spec.Threads, j.Spec.Policies)
	case KindExperiment:
		entry, ok := experiments.LookupExperiment(o, j.Spec.Experiment)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", j.Spec.Experiment)
		}
		text, csv, data := entry.Run()
		return map[string]any{
			"experiment": entry.Name,
			"text":       text,
			"csv":        csv,
			"data":       data,
		}, nil
	default:
		return nil, fmt.Errorf("bad kind %q", j.Spec.Kind)
	}
}

// Drain stops admission, lets the queue empty, and waits for every
// worker to finish its current job (or ctx to expire). Safe to call
// more than once.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// Stats is the /v1/stats payload: queue and job counters plus the
// full cache/store picture, the observability the load generator uses
// to compute cold-vs-warm ratios.
type Stats struct {
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	Queued   int `json:"queued"`
	// Jobs* count terminal jobs since process start.
	JobsDone   uint64 `json:"jobs_done"`
	JobsFailed uint64 `json:"jobs_failed"`
	// JobsRetained counts the finished jobs the registry still holds
	// (at most 1024); an older finished job answers 410.
	JobsRetained int  `json:"jobs_retained"`
	Draining     bool `json:"draining"`

	// The service's run cache (Config.Runs), since it was built.
	// CacheDerived counts the computes served from a sibling policy's
	// training record instead of simulated (core.Runs.Derived).
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheComputes  uint64 `json:"cache_computes"`
	CacheDerived   uint64 `json:"cache_derived"`
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     uint64 `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// Disk store (nil-safe zeros when no store is attached).
	StoreAttached bool         `json:"store_attached"`
	StoreDir      string       `json:"store_dir,omitempty"`
	Store         *store.Stats `json:"store,omitempty"`
	StoreEntries  int          `json:"store_entries,omitempty"`
	StoreBytes    int64        `json:"store_bytes,omitempty"`

	RunnerWorkers int `json:"runner_workers"`

	// SimEnergyTotal is the simulated energy, in core-cycle units,
	// summed over every run the service's run cache simulated, co-runs
	// included: table-driven Energy.Total on laddered machines, active
	// core-cycles on the flat path. Runs served from memory or the
	// store add nothing.
	SimEnergyTotal float64 `json:"sim_energy_total"`
}

// Stats snapshots the service and cache counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	retained := len(s.finished)
	s.mu.Unlock()
	runs := s.cfg.Runs
	hits, misses := runs.Stats()
	entries, bytes, evictions := runs.Usage()
	st := Stats{
		Workers:        s.cfg.Workers,
		QueueCap:       s.cfg.QueueCap,
		Queued:         s.q.depth(),
		JobsDone:       s.done.Load(),
		JobsFailed:     s.failed.Load(),
		JobsRetained:   retained,
		Draining:       s.draining.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheComputes:  runs.Computes(),
		CacheDerived:   runs.Derived(),
		CacheEntries:   entries,
		CacheBytes:     bytes,
		CacheEvictions: evictions,
		RunnerWorkers:  runner.Workers(),
		SimEnergyTotal: runs.Energy(),
	}
	if rs := runs.Store(); rs != nil {
		st.StoreAttached = true
		st.StoreDir = rs.Dir()
		stats := rs.Stats()
		st.Store = &stats
		st.StoreEntries, st.StoreBytes = rs.Len()
	}
	return st
}

package service

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
)

// smallSweep is the cheap canonical job used throughout these tests:
// a two-point static sweep of pagemine on an 8-core machine
// (sub-second on any host).
func smallSweep(client string) Spec {
	return Spec{Client: client, Workload: "pagemine", Threads: []int{2, 4}, Cores: 8}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		switch j.Status() {
		case StatusDone:
			return
		case StatusFailed:
			t.Fatalf("job %s failed: %s", j.ID, j.Snapshot(false).Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", j.ID)
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)

	j, err := s.Submit(smallSweep("t"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var res experiments.SweepJobResult
	if err := json.Unmarshal(j.Result(), &res); err != nil {
		t.Fatalf("result not a SweepJobResult: %v", err)
	}
	if len(res.Sweep) != 2 || res.Sweep[0].TotalCycles == 0 {
		t.Fatalf("sweep result malformed: %+v", res)
	}
	if res.MinThreads != 2 && res.MinThreads != 4 {
		t.Errorf("min_threads = %d, want 2 or 4", res.MinThreads)
	}

	// The event history must be a complete lifecycle: queued, running,
	// one point per sweep entry, done.
	ch, cancel := j.Subscribe()
	defer cancel()
	var types []string
	points := 0
	for ev := range ch {
		types = append(types, ev.Type)
		if ev.Type == "point" {
			points++
			if ev.Workload != "pagemine" || ev.Cycles == 0 || ev.Total != 2 {
				t.Errorf("malformed point event: %+v", ev)
			}
		}
	}
	if points != 2 {
		t.Errorf("saw %d point events, want 2 (history: %v)", points, types)
	}
	if types[0] != "queued" || types[len(types)-1] != "done" {
		t.Errorf("lifecycle = %v, want queued...done", types)
	}
}

func TestSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)

	bad := []Spec{
		{}, // no workload, no experiment
		{Workload: "nosuch", Threads: []int{1}},
		{Workload: "pagemine"}, // no threads, no policies
		{Workload: "pagemine", Threads: []int{0}},
		{Workload: "pagemine", Threads: []int{1}, Cores: -3},
		{Workload: "pagemine", Threads: []int{1}, Cores: 4}, // not a multiple of the L3 banks
		{Workload: "pagemine", Threads: []int{1}, Mode: "warp"},
		{Workload: "pagemine", Threads: []int{1}, Policies: []string{"nosuch"}},
		{Workload: "pagemine", Threads: []int{99}, Cores: 8},
		{Experiment: "nosuchfig"},
		{Experiment: "fig2", Workload: "pagemine"},
		{Kind: "weird", Workload: "pagemine", Threads: []int{1}},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d (%+v) accepted", i, spec)
		}
	}
}

// Concurrent identical submissions must collapse into one simulation
// per distinct run via the cache's single-flight keys. Under -race
// this is the dedup half of the PR's race gauntlet.
func TestConcurrentIdenticalSubmissionsDedup(t *testing.T) {
	s := New(Config{Workers: 4, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)

	const clients = 8
	jobs := make([]*Job, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(smallSweep("c" + string(rune('a'+i))))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	var first json.RawMessage
	for i, j := range jobs {
		if j == nil {
			t.Fatal("missing job")
		}
		waitDone(t, j)
		if i == 0 {
			first = j.Result()
			continue
		}
		if string(j.Result()) != string(first) {
			t.Errorf("job %d result differs from job 0", i)
		}
	}
	// 8 jobs x 2 points, but only 2 distinct runs exist.
	if got := s.cfg.Runs.Computes(); got != 2 {
		t.Errorf("computes = %d, want 2 (single-flight dedup)", got)
	}
	hits, misses := s.cfg.Runs.Stats()
	if misses != 2 || hits != clients*2-2 {
		t.Errorf("cache = %d hits / %d misses, want %d / 2", hits, misses, clients*2-2)
	}
}

func TestSubmitWhileDrainingRejected(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	drain(t, s)
	if _, err := s.Submit(smallSweep("t")); err != ErrDraining {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
}

// Drain must finish queued work: a job admitted before drain begins
// still completes.
func TestDrainFinishesAdmittedJobs(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	j1, err := s.Submit(smallSweep("a"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(smallSweep("b"))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	for _, j := range []*Job{j1, j2} {
		if j.Status() != StatusDone {
			t.Errorf("job %s = %s after drain, want done", j.ID, j.Status())
		}
	}
}

func TestQueueFullMapsToSubmitError(t *testing.T) {
	// One worker, capacity 1: the first job occupies the worker, the
	// second fills the queue, the third must be rejected.
	s := New(Config{Workers: 1, QueueCap: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)

	j1, err := s.Submit(smallSweep("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the worker picked j1 up so the queue is empty for j2.
	deadline := time.Now().Add(time.Minute)
	for j1.Status() == StatusQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(smallSweep("b")); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	_, err = s.Submit(smallSweep("c"))
	if err != ErrQueueFull {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	// The rejected job must not linger in the registry.
	if _, ok := s.Job("job-3"); ok {
		t.Error("rejected job left registered")
	}
}

// A policy-only job (no sweep) must work and carry policy placements.
func TestPolicyOnlyJob(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)

	j, err := s.Submit(Spec{
		Workload: "pagemine", Cores: 8,
		Policies: []string{"sat+bat", "static:4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	var res experiments.SweepJobResult
	if err := json.Unmarshal(j.Result(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 2 || len(res.Sweep) != 0 {
		t.Fatalf("policies=%d sweep=%d, want 2/0", len(res.Policies), len(res.Sweep))
	}
	if res.Policies[0].Policy != "SAT+BAT" {
		t.Errorf("policy label = %q, want SAT+BAT", res.Policies[0].Policy)
	}
}

// TestStatsCountDerivedRuns places SAT+BAT and SAT on sconv, whose SAT
// run the run cache derives from SAT+BAT's training record: /v1/stats
// counts it in cache_derived and still in cache_computes.
func TestStatsCountDerivedRuns(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	j, err := s.Submit(Spec{Client: "t", Workload: "sconv", Policies: []string{"sat", "sat+bat"}, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := s.Stats(); st.CacheDerived != 1 || st.CacheComputes != 2 {
		t.Errorf("stats: %d derived, %d computes; want 1 and 2", st.CacheDerived, st.CacheComputes)
	}
}

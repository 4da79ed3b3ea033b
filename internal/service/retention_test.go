package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"fdt/internal/core"
)

// newManual returns a service with no dispatchers: jobs stay queued
// until the test runs them with runNext, so every registry count is
// exact.
func newManual(t *testing.T, retain int) *Service {
	t.Helper()
	s := New(Config{Workers: -1, QueueCap: -1, Runs: core.NewRuns(0, nil)})
	s.retain = retain
	t.Cleanup(func() { drain(t, s) })
	return s
}

// runNext dispatches the next queued job in the calling goroutine.
func runNext(t *testing.T, s *Service) *Job {
	t.Helper()
	j, ok := s.q.pop()
	if !ok {
		t.Fatal("queue closed")
	}
	s.runJob(j)
	if j.Status() != StatusDone {
		t.Fatalf("job %s = %s: %s", j.ID, j.Status(), j.Snapshot(false).Error)
	}
	return j
}

func submitOK(t *testing.T, s *Service, spec Spec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func registered(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func statusOf(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A dropped job answers 410 on both job endpoints; an ID that was
// never issued stays 404. Resubmitting the dropped job's Spec computes
// nothing and returns the same bytes.
func TestDroppedJobAnswersGone(t *testing.T) {
	s := newManual(t, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := submitOK(t, s, smallSweep("gone"))
	runNext(t, s)
	firstResult := first.Result()
	computes := s.cfg.Runs.Computes()
	for i := 0; i < 2; i++ {
		submitOK(t, s, smallSweep("gone"))
		runNext(t, s)
	}

	if j, gone := s.lookup(first.ID); j != nil || !gone {
		t.Fatalf("lookup(%s) = %v, %v; want dropped", first.ID, j, gone)
	}
	for _, path := range []string{"/v1/jobs/job-1", "/v1/jobs/job-1/stream"} {
		if code := statusOf(t, ts, path); code != http.StatusGone {
			t.Errorf("GET %s = %d, want 410", path, code)
		}
	}
	for _, id := range []string{"job-2", "job-3"} {
		if code := statusOf(t, ts, "/v1/jobs/"+id); code != http.StatusOK {
			t.Errorf("retained %s = %d, want 200", id, code)
		}
	}
	for _, id := range []string{"job-4", "job-0", "job-01", "job-", "job-x", "nosuch"} {
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/stream"} {
			if code := statusOf(t, ts, path); code != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", path, code)
			}
		}
	}

	again := submitOK(t, s, smallSweep("gone"))
	runNext(t, s)
	if got := s.cfg.Runs.Computes(); got != computes {
		t.Errorf("resubmission computed: %d -> %d", computes, got)
	}
	if !bytes.Equal(again.Result(), firstResult) {
		t.Errorf("resubmitted result differs:\nfirst: %s\nagain: %s", firstResult, again.Result())
	}
	if st := s.Stats(); st.JobsRetained != 2 || st.JobsDone != 4 {
		t.Errorf("stats: retained %d done %d, want 2 / 4", st.JobsRetained, st.JobsDone)
	}
}

// Only finished jobs are dropped, oldest finish first; a queued or
// running job stays registered however many others finish.
func TestInFlightJobsNeverDropped(t *testing.T) {
	s := newManual(t, 2)
	jobs := make([]*Job, 6)
	for i := range jobs {
		jobs[i] = submitOK(t, s, smallSweep("inflight"))
	}
	running, ok := s.q.pop()
	if !ok || running != jobs[0] {
		t.Fatal("queue did not hand out job-1 first")
	}
	running.start()
	for range 4 {
		runNext(t, s) // job-2 .. job-5
	}
	want := map[string]bool{"job-1": true, "job-2": false, "job-3": false, "job-4": true, "job-5": true, "job-6": true}
	check := func() {
		t.Helper()
		for id, present := range want {
			if _, ok := s.Job(id); ok != present {
				t.Errorf("%s registered = %v, want %v", id, ok, present)
			}
		}
	}
	check()

	// job-1 finishes last, so it pushes out job-4, not itself.
	s.finish(running, nil, errors.New("stopped by the test"))
	want["job-4"] = false
	check()
	if st := s.Stats(); st.JobsRetained != 2 || st.JobsFailed != 1 || st.Queued != 1 {
		t.Errorf("stats = retained %d failed %d queued %d, want 2 / 1 / 1",
			st.JobsRetained, st.JobsFailed, st.Queued)
	}
}

// The registry holds exactly the retained finished jobs plus the ones
// in flight, and live heap stays flat once the retention set is full.
func TestRegistryMemoryBounded(t *testing.T) {
	s := newManual(t, retainFinished)
	const n = 5000
	var heapAt1000 uint64
	for i := 1; i <= n; i++ {
		submitOK(t, s, smallSweep("bounded"))
		if got, want := registered(s), min(i-1, retainFinished)+1; got != want {
			t.Fatalf("after submit %d: %d registered, want %d", i, got, want)
		}
		runNext(t, s)
		if got, want := registered(s), min(i, retainFinished); got != want {
			t.Fatalf("after job %d: %d registered, want %d", i, got, want)
		}
		if i == 1000 {
			heapAt1000 = liveHeap()
		}
	}
	if computes := s.cfg.Runs.Computes(); computes != 2 {
		t.Errorf("computes = %d, want 2 (every later job is cached)", computes)
	}
	grew := int64(liveHeap()) - int64(heapAt1000)
	t.Logf("live heap grew %d bytes between job 1000 and job %d", grew, n)
	if grew >= 1<<20 {
		t.Errorf("live heap grew %.2f MB between job 1000 and job %d, want < 1 MB",
			float64(grew)/(1<<20), n)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A subscriber that reads nothing until the job is over still gets
// every event exactly once, in order; one that joins after the end
// gets the whole log and then the close.
func TestStreamLosesNoEvents(t *testing.T) {
	const points = 1000
	j := newJob("job-1", smallSweep("slow"))
	ch, cancel := j.Subscribe()
	defer cancel()
	for i := 1; i <= points; i++ {
		j.publish(Event{Type: "point", Job: j.ID, Index: i})
	}
	j.finish(nil, nil)

	check := func(ch <-chan Event) {
		t.Helper()
		var got []Event
		for ev := range ch {
			got = append(got, ev)
		}
		if len(got) != points+2 {
			t.Fatalf("got %d events, want %d", len(got), points+2)
		}
		if got[0].Type != StatusQueued || got[len(got)-1].Type != "done" {
			t.Errorf("lifecycle %s...%s, want queued...done", got[0].Type, got[len(got)-1].Type)
		}
		for i, ev := range got[1 : points+1] {
			if ev.Type != "point" || ev.Index != i+1 {
				t.Fatalf("event %d = %+v, want point %d", i+1, ev, i+1)
			}
		}
	}
	check(ch)
	late, cancelLate := j.Subscribe()
	defer cancelLate()
	check(late)
}

// Over HTTP: a client that opens the stream and stops reading loses
// nothing, and a client that connects after the end gets the full
// history and then EOF.
func TestSSEStreamSlowReader(t *testing.T) {
	s := newManual(t, retainFinished)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const points = 1000
	submitOK(t, s, smallSweep("sse-slow"))
	resp, err := http.Get(ts.URL + "/v1/jobs/job-1/stream")
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.q.pop()
	j.start()
	for i := 1; i <= points; i++ {
		j.publish(Event{Type: "point", Job: j.ID, Index: i})
	}
	s.finish(j, []byte(`{}`), nil)

	for _, stream := range []*http.Response{resp, nil} {
		if stream == nil {
			if stream, err = http.Get(ts.URL + "/v1/jobs/job-1/stream"); err != nil {
				t.Fatal(err)
			}
		}
		events := readSSE(t, stream) // returns only on clean EOF
		if len(events) != points+3 {
			t.Fatalf("stream carried %d events, want %d", len(events), points+3)
		}
		for i, ev := range events {
			want := "point"
			switch i {
			case 0:
				want = StatusQueued
			case 1:
				want = StatusRunning
			case points + 2:
				want = "done"
			}
			if ev.Name != want || ev.Data.Type != want || (want == "point" && ev.Data.Index != i-1) {
				t.Fatalf("event %d = %s %+v, want %s", i, ev.Name, ev.Data, want)
			}
		}
	}
}

// An ID is dropped only after a newer job finished, so a client that
// fetches its result right after "done" always finds it.
func TestRetainedAtDone(t *testing.T) {
	s := newManual(t, 1)
	for i := 1; i <= 3; i++ {
		j := submitOK(t, s, smallSweep("fresh"))
		runNext(t, s)
		if got, ok := s.Job(j.ID); !ok || got != j {
			t.Fatalf("job %s missing right after it finished", j.ID)
		}
		if i > 1 {
			if _, gone := s.lookup(fmt.Sprintf("job-%d", i-1)); !gone {
				t.Errorf("job-%d not reported dropped", i-1)
			}
		}
	}
}

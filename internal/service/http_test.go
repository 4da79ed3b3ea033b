package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fdt/internal/core"
)

func postJob(t *testing.T, ts *httptest.Server, spec Spec) (View, *http.Response) {
	t.Helper()
	blob, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollDone(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status == StatusDone {
			return v
		}
		if v.Status == StatusFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, resp := postJob(t, ts, smallSweep("http"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || (v.Status != StatusQueued && v.Status != StatusRunning) {
		t.Fatalf("submit view = %+v", v)
	}

	final := pollDone(t, ts, v.ID)
	if len(final.Result) == 0 {
		t.Fatal("done job has no result")
	}
	var res struct {
		Sweep []struct{ TotalCycles uint64 } `json:"sweep"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 2 {
		t.Fatalf("result sweep has %d points, want 2", len(res.Sweep))
	}

	st := getStats(t, ts)
	if st.JobsDone != 1 || st.CacheComputes != 2 {
		t.Errorf("stats = done %d computes %d, want 1 / 2", st.JobsDone, st.CacheComputes)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Bad spec -> 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"nosuch","threads":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", resp.StatusCode)
	}

	// Unknown field -> 400 (spec typos must not silently no-op).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"pagemine","treads":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp.StatusCode)
	}

	// Unknown job -> 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// Healthz flips to 503 on drain.
	resp, _ = http.Get(ts.URL + "/v1/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	drain(t, s)
	resp, _ = http.Get(ts.URL + "/v1/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	v, resp2 := postJob(t, ts, smallSweep("late"))
	_ = v
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp2.StatusCode)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	Name string
	Data Event
}

// readSSE consumes a stream to EOF, which must arrive on its own
// (clean termination after the terminal event).
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.Name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return events
}

func TestSSEStreamTerminatesCleanly(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, smallSweep("sse"))

	// Subscribe immediately — the stream must replay whatever already
	// happened and then follow the job live to termination.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	events := readSSE(t, resp) // returns only on clean EOF

	var names []string
	points := 0
	for _, ev := range events {
		names = append(names, ev.Name)
		if ev.Name == "point" {
			points++
			if ev.Data.Cycles == 0 || ev.Data.Workload != "pagemine" {
				t.Errorf("malformed point event: %+v", ev.Data)
			}
		}
	}
	if len(names) == 0 || names[0] != "queued" || names[len(names)-1] != "done" {
		t.Fatalf("SSE lifecycle = %v, want queued...done", names)
	}
	if points != 2 {
		t.Errorf("SSE carried %d points, want 2 (events %v)", points, names)
	}

	// A subscriber arriving after completion still gets the full
	// replay and immediate termination.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp)
	if len(replay) != len(events) {
		t.Errorf("late replay has %d events, live stream had %d", len(replay), len(events))
	}
}

// Per-client fairness end to end: with one worker, a flood from
// client A must not delay client B's single job behind the whole
// flood. We assert on completion order: B finishes before A's last
// job.
func TestHTTPFairnessAcrossClients(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	flood := make([]View, 6)
	for i := range flood {
		flood[i], _ = postJob(t, ts, smallSweep("flood"))
		if flood[i].ID == "" {
			t.Fatal("flood submit failed")
		}
	}
	single, _ := postJob(t, ts, Spec{Client: "single", Workload: "pagemine", Threads: []int{6}, Cores: 8})
	if single.ID == "" {
		t.Fatal("single submit failed")
	}

	singleDone := pollDone(t, ts, single.ID)
	lastFlood := pollDone(t, ts, flood[len(flood)-1].ID)
	if singleDone.Finished == nil || lastFlood.Finished == nil {
		t.Fatal("missing finish timestamps")
	}
	if singleDone.Finished.After(*lastFlood.Finished) {
		t.Errorf("fairness violated: single client's job finished %v, after the flood's last job %v",
			singleDone.Finished, lastFlood.Finished)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	s := New(Config{Workers: 3, QueueCap: 17, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := getStats(t, ts)
	if st.Workers != 3 || st.QueueCap != 17 || st.StoreAttached {
		t.Errorf("stats = %+v, want workers 3, cap 17, no store", st)
	}
	if st.RunnerWorkers < 1 {
		t.Errorf("runner workers = %d", st.RunnerWorkers)
	}
}

func TestHTTPPowerSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed budgets, ladders and machine geometries -> 400 before
	// any simulation.
	for _, body := range []string{
		`{"workload":"ed","threads":[1],"cores":4}`,
		`{"workload":"ed","threads":[1],"cores":128}`,
		`{"workload":"ed","threads":[1],"power_budget":-2}`,
		`{"workload":"ed","threads":[1],"freq_ladder_mhz":[800,1600]}`,
		`{"workload":"ed","threads":[1],"freq_ladder_mhz":[2000,2000]}`,
		`{"workload":"ed","threads":[1],"freq_ladder_mhz":[2000,-1]}`,
		`{"workload":"ed","power_budget":5,"policies":["hillclimb"]}`,
		`{"workload":"ed","power_budget":5,"policies":["hybrid"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPPowerSweepJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated sweep")
	}
	s := New(Config{Workers: 1, Runs: core.NewRuns(0, nil)})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, resp := postJob(t, ts, Spec{
		Workload: "ed", Threads: []int{4}, Policies: []string{"sat+bat"},
		Cores: 16, PowerBudget: 5.6,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := pollDone(t, ts, v.ID)
	var res struct {
		Sweep []struct {
			Energy *struct {
				Total    float64 `json:"Total"`
				AvgPower float64 `json:"AvgPower"`
			} `json:",omitempty"`
		} `json:"sweep"`
		Policies []struct {
			Kernels []struct {
				Decision struct {
					Freq string `json:"Freq"`
				} `json:"Decision"`
			} `json:"Kernels"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 1 || res.Sweep[0].Energy == nil || res.Sweep[0].Energy.Total <= 0 {
		t.Errorf("budgeted sweep point carries no energy accounting: %s", final.Result[:min(len(final.Result), 400)])
	}
	if len(res.Policies) != 1 || len(res.Policies[0].Kernels) == 0 ||
		!strings.HasPrefix(res.Policies[0].Kernels[0].Decision.Freq, "f") {
		t.Error("budgeted policy decision carries no P-state name")
	}
	if st := getStats(t, ts); st.SimEnergyTotal <= 0 {
		t.Errorf("stats sim_energy_total = %g, want > 0", st.SimEnergyTotal)
	}
}

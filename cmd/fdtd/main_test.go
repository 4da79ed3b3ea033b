package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuf makes a bytes.Buffer safe to read while the daemon
// goroutine is still writing to it.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL plus a shutdown func that triggers a graceful drain and
// waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (base string, stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut lockedBuf
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, args, &out, &errOut) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "fdtd: listening on "); ok {
				return "http://" + strings.TrimSpace(addr), func() (int, string) {
					cancel()
					select {
					case code := <-exit:
						return code, out.String() + errOut.String()
					case <-time.After(2 * time.Minute):
						t.Fatal("daemon did not stop")
						return -1, ""
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	t.Fatalf("daemon never listened; output:\n%s%s", out.String(), errOut.String())
	return "", nil
}

func submit(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

func await(t *testing.T, base, id string) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		switch v.Status {
		case "done":
			return v.Result
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

const sweepSpec = `{"workload":"pagemine","threads":[2,4],"cores":8}`

func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base, stop := startDaemon(t, "-store", dir, "-workers", "1")

	id := submit(t, base, sweepSpec)
	first := await(t, base, id)
	if !strings.Contains(string(first), `"min_threads"`) {
		t.Fatalf("result missing min_threads: %s", first)
	}

	// Second identical submission is served from cache: zero new
	// computes.
	resp, _ := http.Get(base + "/v1/stats")
	var st1 struct {
		CacheComputes uint64 `json:"cache_computes"`
	}
	json.NewDecoder(resp.Body).Decode(&st1)
	resp.Body.Close()

	second := await(t, base, submit(t, base, sweepSpec))
	if string(first) != string(second) {
		t.Fatal("repeat submission returned different bytes")
	}
	resp, _ = http.Get(base + "/v1/stats")
	var st2 struct {
		CacheComputes uint64 `json:"cache_computes"`
		StoreAttached bool   `json:"store_attached"`
	}
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if st2.CacheComputes != st1.CacheComputes {
		t.Fatalf("repeat submission recomputed (%d -> %d)", st1.CacheComputes, st2.CacheComputes)
	}
	if !st2.StoreAttached {
		t.Fatal("store not attached")
	}

	code, logs := stop()
	if code != 0 {
		t.Fatalf("daemon exit = %d\n%s", code, logs)
	}
	if !strings.Contains(logs, "fdtd: draining") || !strings.Contains(logs, "fdtd: stopped") {
		t.Fatalf("graceful-drain log lines missing:\n%s", logs)
	}

	// Restart on the same store directory: the resubmitted sweep must
	// be all store hits — zero recomputes — with byte-identical output.
	base2, stop2 := startDaemon(t, "-store", dir, "-workers", "1")
	third := await(t, base2, submit(t, base2, sweepSpec))
	if string(first) != string(third) {
		t.Fatalf("restart broke byte-identity:\n%s\nvs\n%s", first, third)
	}
	resp, _ = http.Get(base2 + "/v1/stats")
	var st3 struct {
		CacheComputes uint64 `json:"cache_computes"`
	}
	json.NewDecoder(resp.Body).Decode(&st3)
	resp.Body.Close()
	if st3.CacheComputes != 0 {
		t.Fatalf("restarted daemon recomputed %d runs, want 0", st3.CacheComputes)
	}
	if code, logs := stop2(); code != 0 {
		t.Fatalf("restarted daemon exit = %d\n%s", code, logs)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"stray"}, &out, &errOut); code != 2 {
		t.Errorf("stray arg exit = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-store", "/dev/null/nope"}, &out, &errOut); code != 1 {
		t.Errorf("bad store exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "open store") {
		t.Errorf("missing store error: %s", errOut.String())
	}
}

func TestDaemonSSEOverTCP(t *testing.T) {
	base, stop := startDaemon(t)
	defer stop()

	id := submit(t, base, sweepSpec)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)
	for _, want := range []string{"event: queued", "event: running", "event: point", "event: done"} {
		if !strings.Contains(body, want) {
			t.Errorf("stream missing %q:\n%s", want, body)
		}
	}
}

// -pprof serves the profiling index on its own listener and prints
// the bound address; a bad address fails setup.
func TestDaemonPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut lockedBuf
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, &out, &errOut)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, line := range strings.Split(out.String(), "\n") {
			if a, ok := strings.CutPrefix(line, "fdtd: pprof on "); ok {
				addr = strings.TrimSpace(a)
			}
		}
	}
	if addr == "" {
		cancel()
		t.Fatalf("no pprof address printed; output:\n%s%s", out.String(), errOut.String())
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), "heap") {
		t.Errorf("GET /debug/pprof/ = %d:\n%s", resp.StatusCode, blob)
	}
	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("daemon exit = %d\n%s%s", code, out.String(), errOut.String())
	}

	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-pprof", "bad:addr:x"}, &out, &errOut); code != 1 {
		t.Errorf("bad pprof address exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "pprof listen") {
		t.Errorf("missing pprof error: %s", errOut.String())
	}
}

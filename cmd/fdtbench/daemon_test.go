package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/service"
)

func TestReadSSEStopsAtTerminalEvent(t *testing.T) {
	for _, c := range []struct {
		name, stream  string
		term, msg     string
		wantErr       bool
		wantEventSeen []string
	}{
		{"done", "event: queued\ndata: {}\n\nevent: running\ndata: {}\n\nevent: point\ndata: {}\n\nevent: done\ndata: {}\n\nevent: ignored\ndata: {}\n\n",
			"done", "", false, []string{"queued", "running", "point", "done"}},
		{"error", "event: running\ndata: {}\n\nevent: error\ndata: {\"error\":\"boom\"}\n\n",
			"error", "boom", false, []string{"running", "error"}},
		{"truncated", "event: running\ndata: {}\n\nevent: point\ndata: {}\n\n",
			"", "", true, []string{"running", "point"}},
	} {
		var seen []string
		term, msg, err := readSSE(strings.NewReader(c.stream), func(typ string) { seen = append(seen, typ) })
		if term != c.term || msg != c.msg || (err != nil) != c.wantErr {
			t.Errorf("%s: readSSE = %q, %q, %v", c.name, term, msg, err)
		}
		if !slices.Equal(seen, c.wantEventSeen) {
			t.Errorf("%s: events %v, want %v", c.name, seen, c.wantEventSeen)
		}
	}
}

func TestClientSequencesSeeded(t *testing.T) {
	for _, p := range []daemonPlan{daemonCold(), daemonWarm()} {
		a, b := p.clientSequences(1, 0), p.clientSequences(1, 0)
		if !slices.Equal(a[0], b[0]) || !slices.Equal(a[1], b[1]) {
			t.Errorf("%s: the same seed gave different sequences", p.name)
		}
		c := p.clientSequences(2, 0)
		if slices.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", p.name)
		}
		if slices.Equal(a[0], p.clientSequences(1, 1)[0]) {
			t.Errorf("%s: passes 0 and 1 gave the same sequence", p.name)
		}
	}
	// Cold: the two clients cover every spec, and share exactly a third.
	seqs := daemonCold().clientSequences(7, 3)
	n := len(daemonSpecs())
	count := make([]int, n)
	for _, s := range seqs {
		for _, i := range s {
			count[i]++
		}
	}
	shared := 0
	for i, c := range count {
		if c == 0 {
			t.Errorf("spec %d submitted by no client", i)
		}
		if c == 2 {
			shared++
		}
	}
	if shared != n/3 || len(seqs[0])+len(seqs[1]) != n+n/3 {
		t.Errorf("cold: %d shared specs, %d requests; want %d and %d", shared, len(seqs[0])+len(seqs[1]), n/3, n+n/3)
	}
	if w := daemonWarm().clientSequences(1, 0); len(w[0]) != daemonWarm().requests {
		t.Errorf("warm: %d requests per client, want %d", len(w[0]), daemonWarm().requests)
	}
}

func TestOrderSeeded(t *testing.T) {
	if !slices.Equal(order(3, 1, 12), order(3, 1, 12)) {
		t.Error("order is not deterministic")
	}
	if slices.Equal(order(3, 1, 12), order(4, 1, 12)) {
		t.Error("seeds 3 and 4 gave the same order")
	}
	o := slices.Clone(order(3, 1, 12))
	slices.Sort(o)
	for i, v := range o {
		if v != i {
			t.Fatalf("order is not a permutation: %v", order(3, 1, 12))
		}
	}
}

// TestDaemonPassSmoke drives a reduced cold plan through the real
// service handler in-process and checks every result against the
// goldens.
func TestDaemonPassSmoke(t *testing.T) {
	gold, err := loadDaemonGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenRunStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	core.ResetRunCache()
	t.Cleanup(func() {
		core.DetachRunStore()
		core.ResetRunCache()
	})
	svc := service.New(service.Config{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Drain(context.Background())

	plan := daemonCold()
	plan.specs = []daemonSpec{
		{Workload: "mtwister", Cores: daemonCores, Threads: []int{1}},
		{Workload: "mtwister", Cores: daemonCores, Threads: []int{2}},
		{Workload: "mtwister", Cores: daemonCores, Policies: []string{"sat+bat"}},
	}
	seqs := plan.clientSequences(1, 0)
	res, err := runDaemonPass(context.Background(), srv.URL, plan, seqs, gold, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 0 {
		t.Fatalf("failures: %v", res.failures)
	}
	if res.attempted != 4 || len(res.latMs) != 4 || len(res.sums) != 3 || len(res.spans) != 16 {
		t.Errorf("attempted %d, latencies %d, results %d, spans %d; want 4, 4, 3, 16",
			res.attempted, len(res.latMs), len(res.sums), len(res.spans))
	}
	if got := res.after.CacheComputes - res.before.CacheComputes; got != 3 {
		t.Errorf("computes = %d, want 3 (the shared spec runs once)", got)
	}
	if got := res.after.Store.Puts - res.before.Store.Puts; got != 3 {
		t.Errorf("store puts = %d, want 3", got)
	}

	// A wrong golden is a failure, not an error.
	bad := map[string]string{}
	for k := range gold {
		bad[k] = "0"
	}
	res, err = runDaemonPass(context.Background(), srv.URL, plan, seqs, bad, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 4 {
		t.Errorf("%d failures against wrong goldens, want 4", len(res.failures))
	}
}

// TestDaemonProcessLifecycle builds the real fdtd, starts it on an
// empty store, runs one job and stops it.
func TestDaemonProcessLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/fdtd")
	}
	bin := filepath.Join(t.TempDir(), "fdtd")
	build := exec.Command("go", "build", "-o", bin, "fdt/cmd/fdtd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fdtd: %v\n%s", err, out)
	}
	ctx := context.Background()
	d, err := startDaemon(ctx, bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(d.base, "test")
	_, sum, jerr := c.job(ctx, []byte(`{"workload":"mtwister","cores":8,"threads":[1]}`))
	resp, herr := http.Get(d.base + "/v1/healthz")
	if herr == nil {
		drainClose(resp.Body)
	}
	peak, cpu, serr := d.stop()
	if jerr != nil || herr != nil || serr != nil {
		t.Fatalf("job %v, healthz %v, stop %v", jerr, herr, serr)
	}
	gold, _ := loadDaemonGoldens()
	if want := gold[daemonSpec{Workload: "mtwister", Cores: 8, Threads: []int{1}}.key()]; sum != want {
		t.Errorf("result sha256 %s, golden %s", sum, want)
	}
	if peak <= 0 || cpu <= 0 || d.setupS <= 0 {
		t.Errorf("peak %g MB, cpu %g s, setup %g s; want all positive", peak, cpu, d.setupS)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/service"
	"fdt/internal/store"
)

func startService(t *testing.T, storeDir string) *httptest.Server {
	t.Helper()
	var st *store.Store
	if storeDir != "" {
		var err error
		if st, err = store.Open(storeDir, core.RunStoreSchema); err != nil {
			t.Fatal(err)
		}
	}
	s := service.New(service.Config{Workers: 4, Runs: core.NewRuns(0, st)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestLoadColdThenWarm(t *testing.T) {
	ts := startService(t, t.TempDir())
	addr := strings.TrimPrefix(ts.URL, "http://")

	// Cold pass: 2 clients x 2 requests, all identical; only the two
	// distinct sweep points are ever computed.
	var out, errOut bytes.Buffer
	code := run([]string{"-addr", addr, "-clients", "2", "-requests", "2", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, errOut.String())
	}
	var cold Report
	if err := json.Unmarshal(out.Bytes(), &cold); err != nil {
		t.Fatalf("bad cold report: %v\n%s", err, out.String())
	}
	if cold.Total != 4 || cold.Failed != 0 {
		t.Fatalf("cold = %+v", cold)
	}
	if cold.Computes != 2 {
		t.Errorf("cold computes = %d, want 2", cold.Computes)
	}
	if cold.Throughput <= 0 || cold.P50Ms <= 0 || cold.MaxMs < cold.P99Ms || cold.P99Ms < cold.P50Ms {
		t.Errorf("implausible latency stats: %+v", cold)
	}

	// Warm pass: everything is already in cache; zero new computes and
	// a perfect hit ratio.
	out.Reset()
	code = run([]string{"-addr", addr, "-clients", "2", "-requests", "2", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, errOut.String())
	}
	var warm Report
	if err := json.Unmarshal(out.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Computes != 0 {
		t.Errorf("warm computes = %d, want 0", warm.Computes)
	}
	if warm.HitRatio != 1.0 {
		t.Errorf("warm hit ratio = %g, want 1.0", warm.HitRatio)
	}
}

func TestLoadHumanOutput(t *testing.T) {
	ts := startService(t, "")
	addr := strings.TrimPrefix(ts.URL, "http://")

	var out, errOut bytes.Buffer
	code := run([]string{"-addr", addr, "-clients", "1", "-requests", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"jobs/s", "latency ms", "computes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoadFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-clients", "0"}, &out, &errOut); code != 2 {
		t.Errorf("zero clients exit = %d, want 2", code)
	}
	if code := run([]string{"-threads", "2,x"}, &out, &errOut); code != 2 {
		t.Errorf("bad threads exit = %d, want 2", code)
	}
	// Unreachable daemon is a runtime error, not a usage error.
	if code := run([]string{"-addr", "127.0.0.1:1"}, &out, &errOut); code != 1 {
		t.Errorf("unreachable daemon exit = %d, want 1", code)
	}
}

func TestLoadRejectedJobSurfaces(t *testing.T) {
	ts := startService(t, "")
	addr := strings.TrimPrefix(ts.URL, "http://")
	var out, errOut bytes.Buffer
	code := run([]string{"-addr", addr, "-workload", "nosuch", "-clients", "1", "-requests", "1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "submit: 400") {
		t.Errorf("missing submit error: %s", errOut.String())
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// execSweep runs fdtsweep with args and returns its exit code with the
// two output streams.
func execSweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSweepBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-threads", "notanumber"},
		{"-probe-iters", "-1"},
		{"-min-gain", "1.5"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-freq-ladder", "default", "-corun", "pagemine+mg"},
		{"-workload", "ed", "-threads", "1,2", "-power-budget", "5", "-policies", "hillclimb"},
		{"-workload", "ed", "-threads", "1,2", "-power-budget", "5", "-policies", "hybrid"},
		{"-cores", "4"}, // not a multiple of the 8 L3 banks
	}
	for _, args := range cases {
		code, _, errb := execSweep(t, args...)
		if code != 2 {
			t.Errorf("fdtsweep %v = exit %d, want 2; stderr: %s", args, code, errb)
		}
	}
}

func TestSweepPowerBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated sweep")
	}
	code, out, errb := execSweep(t,
		"-workload", "ed", "-cores", "16", "-threads", "1,4",
		"-policies", "sat+bat", "-power-budget", "5.6")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"# ladder f2000>f1600>f1200>f800, budget 5.60",
		"freq=f", "energy=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q in:\n%s", want, out)
		}
	}
}

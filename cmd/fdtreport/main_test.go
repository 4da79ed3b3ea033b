package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fdt/internal/experiments"
)

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-only", "nosuchfig"},
		{"-nosuchflag"},
		{"-corun", "nosuch+mg"},
		{"-corun", "pagemine"},
		{"-mapping", "nosuch"},
		{"-corun", "pagemine+mg", "-mapping", "smt"}, // 1 SMT plane, 2 teams
		{"-corun", "pagemine+mg", "-power-budget", "5"},
		{"-only", "interference", "-power-budget", "5"}, // co-runs reject DVFS
		{"-only", "interference", "-freq-ladder", "3200,2400,1600"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want exit 2; stderr: %s", args, code, errb.String())
		}
	}
}

// The -only help text lists every experiment the registry serves.
func TestOnlyUsageListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb)
	_, usage, ok := strings.Cut(errb.String(), "  -only string\n")
	if !ok {
		t.Fatalf("no -only flag in usage:\n%s", errb.String())
	}
	usage, _, _ = strings.Cut(usage, "\n")
	for _, e := range experiments.Registry(experiments.Options{}) {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(e.Name) + `\b`).MatchString(usage) {
			t.Errorf("-only usage %q does not name experiment %q", usage, e.Name)
		}
	}
}

func TestTablesOnly(t *testing.T) {
	// table1/table2 render without simulating anything.
	for _, name := range []string{"table1", "table2"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-only", name}, &out, &errb); code != 0 {
			t.Fatalf("-only %s: exit %d, stderr: %s", name, code, errb.String())
		}
		if !strings.Contains(out.String(), "Table") {
			t.Errorf("-only %s output missing a table header:\n%s", name, out.String())
		}
	}
}

func TestInterferenceRestricted(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-run simulations")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	// -corun without -only implies the interference family alone.
	args := []string{"-corun", "ed+convert", "-mapping", "packed", "-csv", dir}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Co-runner interference", "ed + convert", "packed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "Figure 2") {
		t.Error("-corun should not run the figure experiments")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "interference.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "pair,workload,") {
		t.Errorf("interference.csv missing header: %q", string(csv[:min(len(csv), 40)]))
	}
}

func TestGauntletOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full gauntlet simulations")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-only", "gauntlet", "-fast", "-csv", dir}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Robustness gauntlet", "gauntlet/oscillate",
		"gauntlet/eqclash", "oracle:", "hybrid", "hill-climb", "<- best"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "gauntlet.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "workload,breaks,oracle_threads,") {
		t.Errorf("gauntlet.csv missing header: %q", string(csv[:min(len(csv), 60)]))
	}
}

func TestFig2CSVAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-only", "fig2", "-fast", "-csv", dir, "-json", dir}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Errorf("report missing the figure rendition:\n%s", out.String())
	}

	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "workload,") {
		t.Errorf("fig2.csv missing header: %q", string(csv[:min(len(csv), 40)]))
	}

	blob, err := os.ReadFile(filepath.Join(dir, "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fig struct {
		Curve struct {
			Points []struct {
				Threads int
				Cycles  uint64
			}
		}
	}
	if err := json.Unmarshal(blob, &fig); err != nil {
		t.Fatalf("fig2.json is not valid JSON: %v", err)
	}
	if len(fig.Curve.Points) == 0 {
		t.Error("fig2.json has no sweep points")
	}
}

func TestCacheDirWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	dir := t.TempDir()
	storeLine := func(out string) (loads, saves, entries int) {
		for _, line := range strings.Split(out, "\n") {
			if n, _ := fmt.Sscanf(line, "[run store: %d loads / %d saves this run; %d entries",
				&loads, &saves, &entries); n == 3 {
				return loads, saves, entries
			}
		}
		t.Fatalf("no run-store footer in output:\n%s", out)
		return 0, 0, 0
	}

	var cold, errb bytes.Buffer
	args := []string{"-only", "fig2", "-fast", "-cache-dir", dir}
	if code := run(args, &cold, &errb); code != 0 {
		t.Fatalf("cold pass: exit %d, stderr: %s", code, errb.String())
	}
	loads, saves, entries := storeLine(cold.String())
	if loads != 0 || saves == 0 || entries != saves {
		t.Fatalf("cold pass: loads=%d saves=%d entries=%d, want 0 loads and saves==entries>0",
			loads, saves, entries)
	}

	// Each run builds its own in-memory cache, as a fresh process
	// would; only the disk store carries over. The warm pass must be
	// served entirely from disk.
	var warm bytes.Buffer
	errb.Reset()
	if code := run(args, &warm, &errb); code != 0 {
		t.Fatalf("warm pass: exit %d, stderr: %s", code, errb.String())
	}
	wloads, wsaves, _ := storeLine(warm.String())
	if wloads != saves || wsaves != 0 {
		t.Fatalf("warm pass: loads=%d saves=%d, want %d loads and 0 saves", wloads, wsaves, saves)
	}
	// The report body must be identical; only the bracketed accounting
	// lines (store counters, wall-clock timings) legitimately differ
	// between the passes.
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "[") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(cold.String()) != strip(warm.String()) {
		t.Error("warm -cache-dir report differs from cold report")
	}
}

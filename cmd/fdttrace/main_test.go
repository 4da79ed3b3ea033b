package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListIncludesExtras(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	// Table 2 plus the extras registry (the phased stress workload).
	for _, want := range []string{"pagemine", "phaseshift"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-policy", "nosuch", "-workload", "ed"},
		{"-events", "nosuchcat"},
		{"-events", ""},
		{"-nosuchflag"},
		{"-corun", "nosuch+mg"},
		{"-corun", "pagemine+mg", "-mapping", "nosuch"},
		{"-corun", "pagemine+mg", "-mapping", "smt"}, // 1 SMT plane, 2 teams
		{"-corun", "pagemine+mg", "-policy", "hybrid"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-power-budget", "5", "-policy", "hybrid"},
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-cores", "4"}, // not a multiple of the 8 L3 banks
		{"-sampled"},    // traces always execute exactly
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want exit 2; stderr: %s", args, code, errb.String())
		}
	}
}

func TestTraceAndTimelineOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	timelinePath := filepath.Join(dir, "t.txt")
	var out, errb bytes.Buffer
	args := []string{"-workload", "ed", "-policy", "static", "-threads", "2",
		"-cores", "8", "-events", "all", "-o", tracePath, "-timeline", timelinePath, "-check"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "invariants ok (") {
		t.Errorf("report missing checker verdict in:\n%s", out.String())
	}

	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace output has no events")
	}

	tl, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) == 0 {
		t.Error("timeline output is empty")
	}
}

func TestCorunTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated co-run")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "c.json")
	var out, errb bytes.Buffer
	args := []string{"-corun", "pagemine+mg", "-mapping", "packed", "-policy", "sat+bat",
		"-cores", "8", "-o", tracePath}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "pagemine+mg") {
		t.Errorf("report missing the pair label in:\n%s", out.String())
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("co-run trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("co-run trace has no events")
	}
	if !strings.Contains(string(blob), `"mapping"`) {
		t.Error("co-run trace metadata missing the mapping")
	}
}

func TestPowerBudgetTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	var out, errb bytes.Buffer
	args := []string{"-workload", "ed", "-policy", "sat+bat", "-cores", "16",
		"-power-budget", "5.6", "-check", "-o", tracePath}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"energy", "avg chip power, table-driven", "invariants ok ("} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Meta map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.Meta["budget"] != "5.6" {
		t.Errorf("trace metadata budget = %q, want 5.6", doc.Meta["budget"])
	}
	if !strings.Contains(doc.Meta["ladder"], "f1600") {
		t.Errorf("trace metadata ladder = %q, want it to name f1600", doc.Meta["ladder"])
	}
}

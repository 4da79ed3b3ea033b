package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// parse registers every group on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, Machine|Power|Sampled|Probe|Corun)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-probe-iters", "-1"}, "-probe-iters -1"},
		{[]string{"-min-gain", "-0.1"}, "-min-gain -0.1"},
		{[]string{"-min-gain", "1"}, "-min-gain 1"},
		{[]string{"-bandwidth", "0"}, "-bandwidth 0"},
		{[]string{"-bandwidth", "-2"}, "-bandwidth -2"},
		{[]string{"-corun", "pagemine"}, "unknown workload \"\""},
		{[]string{"-corun", "pagemine+"}, "unknown workload \"\""},
		{[]string{"-corun", "pagemine+mg+ed"}, "unknown workload \"mg+ed\""},
		{[]string{"-corun", "nosuch+mg"}, "unknown workload \"nosuch\""},
		{[]string{"-corun", "pagemine+nosuch"}, "unknown workload \"nosuch\""},
		{[]string{"-mapping", "nosuch"}, "unknown mapping \"nosuch\""},
		{[]string{"-freq-ladder", "notanumber"}, "bad ladder entry"},
		{[]string{"-freq-ladder", "800,1600"}, "ladder"},
		{[]string{"-power-budget", "-1"}, "power budget -1"},
	}
	for _, tc := range cases {
		_, err := parse(t, tc.args...).Spec()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Spec(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestControlErrors(t *testing.T) {
	f := parse(t)
	for _, name := range []string{"nosuch", "static:0", "static:x", ""} {
		if _, err := f.Control(name); err == nil {
			t.Errorf("Control(%q) accepted", name)
		}
	}
}

func TestSpecResolves(t *testing.T) {
	f := parse(t, "-cores", "8", "-bandwidth", "0.5", "-power-budget", "4", "-sampled",
		"-sample-window", "64", "-corun", "pagemine+mg", "-mapping", "scattered")
	s, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Mem.Cores != 8 || s.Cfg.Freq.Trivial() || s.Power == nil || s.Power.Budget != 4 {
		t.Errorf("machine/power not resolved: cores %d, ladder %v, power %+v", s.Cfg.Mem.Cores, s.Cfg.Freq, s.Power)
	}
	if !s.Mode.Sampled || s.Mode.Params.WindowIters != 64 {
		t.Errorf("mode %+v, want sampled with a 64-iteration window", s.Mode)
	}
	if len(f.Pair) != 2 || f.Pair[0].Name != "pagemine" || f.Pair[1].Name != "mg" {
		t.Errorf("Pair = %v, want pagemine, mg", f.Pair)
	}
	if len(f.Mappings) != 1 || f.Mappings[0] != machine.MapScattered {
		t.Errorf("Mappings = %v, want [scattered]", f.Mappings)
	}
	ctl := core.Control{Policy: core.Combined{}}
	s.Control = ctl
	co := f.CorunSpec(s)
	if co.Mapping != machine.MapScattered || co.Control.Policy != nil || len(co.Teams) != 2 {
		t.Fatalf("CorunSpec = %+v", co)
	}
	if tm := co.Teams[1]; tm.Workload != "mg" || tm.Factory == nil || tm.Control != ctl {
		t.Errorf("team 1 = %+v", tm)
	}

	// Without -corun and -mapping both stay nil: each command's
	// default applies.
	plain := parse(t)
	if _, err := plain.Spec(); err != nil {
		t.Fatal(err)
	}
	if plain.Pair != nil || plain.Mappings != nil {
		t.Errorf("empty flags resolved to Pair %v, Mappings %v", plain.Pair, plain.Mappings)
	}
}

func TestControlTunesProbes(t *testing.T) {
	f := parse(t, "-probe-iters", "32", "-min-gain", "0.05")
	hc, err := f.Control("hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	if h := hc.Policy.(core.HillClimb); h.ProbeIters != 32 || h.MinGain != 0.05 {
		t.Errorf("hill-climb tuning %+v", h)
	}
	hy, err := f.Control("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if h := hy.Policy.(core.Hybrid); h.HP.ProbeIters != 32 || h.HP.MinGain != 0.05 {
		t.Errorf("hybrid tuning %+v", h.HP)
	}
}

func TestPowerLineAndList(t *testing.T) {
	f := parse(t, "-power-budget", "4")
	s, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.PowerLine(s); !strings.HasPrefix(got, "ladder ") || !strings.HasSuffix(got, "budget 4.00") {
		t.Errorf("PowerLine = %q", got)
	}
	if got := f.PowerLine(core.RunSpec{}); got != "" {
		t.Errorf("single-frequency PowerLine = %q, want empty", got)
	}
	var b strings.Builder
	PrintList(&b)
	for _, want := range []string{"WORKLOADS", "pagemine", "POLICIES", "MAPPINGS", "scattered", "MODES"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

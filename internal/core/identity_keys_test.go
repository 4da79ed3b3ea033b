package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fdt/internal/machine"
)

// goldenKeys regenerates the run-cache content addresses that
// testdata/identity_keys_pr9.txt captured from the pre-DVFS tree: a
// spread of machine configs × policies × modes plus the monitor,
// hill-climb and hybrid key forms, each built through RunSpec.Key —
// the path every run takes. The golden file is a hard identity pin —
// if any key changes, previously cached/persisted runs would be
// silently resimulated (or worse, collide), so a diff here is a
// compatibility break, not a test to update casually.
func goldenKeys() []string {
	cfgs := []machine.Config{
		machine.DefaultConfig(),
		machine.DefaultConfig().WithCores(16),
		machine.DefaultConfig().WithCores(8).WithBandwidth(0.5),
		machine.DefaultConfig().WithSMT(2),
	}
	pols := []Policy{Static{}, Static{N: 4}, SAT{}, BAT{}, Combined{}}
	var keys []string
	for _, cfg := range cfgs {
		for _, pol := range pols {
			for _, md := range []Mode{ExactMode(), SampledMode()} {
				keys = append(keys, RunSpec{Cfg: cfg, Workload: "pagemine", Control: Control{Policy: pol}, Mode: md}.Key())
			}
		}
		for _, name := range []string{"adaptive", "hillclimb", "hybrid"} {
			ctl, err := ParseController(name)
			if err != nil {
				panic(err)
			}
			keys = append(keys, RunSpec{Cfg: cfg, Workload: "ed", Control: ctl}.Key())
		}
	}
	return keys
}

// TestRunCacheKeysIdentityPR9 pins every single-frequency run-cache
// key byte-identical to the pre-DVFS release: the trivial ladder must
// contribute nothing to ConfigKey and default PowerParams nothing to
// the run key (satellite 1's cache-key half; the counters half lives
// in internal/experiments).
func TestRunCacheKeysIdentityPR9(t *testing.T) {
	data, err := os.ReadFile("../../testdata/identity_keys_pr9.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	got := goldenKeys()
	if len(got) != len(want) {
		t.Fatalf("key count drifted: got %d, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d drifted from PR 9:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// Measured controllers always execute exactly, so asking for
	// sampling must not move their keys.
	for _, name := range []string{"hillclimb", "hybrid"} {
		ctl, _ := ParseController(name)
		exact := RunSpec{Cfg: machine.DefaultConfig(), Workload: "ed", Control: ctl}
		sampled := exact
		sampled.Mode = SampledMode()
		if exact.Key() != sampled.Key() {
			t.Errorf("%s: sampled key %q differs from exact key %q", name, sampled.Key(), exact.Key())
		}
	}
	// Default power parameters must be invisible in run keys, so
	// budget-keyed entry points share cache entries with the legacy
	// ones.
	if frag := DefaultPowerParams().key(); frag != "" {
		t.Errorf("DefaultPowerParams().key() = %q, want empty", frag)
	}
}

// TestRunCacheKeysFreqFragment is the counterpart: once the ladder or
// the power parameters are non-default they MUST appear in the key,
// so DVFS runs never collide with single-frequency ones.
func TestRunCacheKeysFreqFragment(t *testing.T) {
	base := machine.DefaultConfig()
	cfg := base.WithFreq(machine.DefaultLadder())
	key := ConfigKey(cfg)
	if !strings.HasPrefix(key, ConfigKey(base)) {
		t.Errorf("ladder key does not extend the flat key:\n%s", key)
	}
	wantFrag := "|freq/" + machine.DefaultLadder().Key()
	if !strings.HasSuffix(key, wantFrag) {
		t.Errorf("ladder key %q missing fragment %q", key, wantFrag)
	}
	if k2 := ConfigKey(base.WithFreq(machine.FreqConfig{})); k2 != ConfigKey(base) {
		t.Errorf("explicit trivial ladder changed the key: %q", k2)
	}

	pp := PowerParams{Budget: 4, LockState: -1}
	if got, want := pp.key(), "|power/b=4,lock=-1"; got != want {
		t.Errorf("PowerParams.key() = %q, want %q", got, want)
	}
	lock := PowerParams{Budget: 0, LockState: 2}
	if got, want := lock.key(), "|power/b=0,lock=2"; got != want {
		t.Errorf("lock-only key = %q, want %q", got, want)
	}

	// Through RunSpec.Key: a budgeted sweep point keys its power
	// fragment before its mode fragment; an adaptive run under a
	// budget is forced exact, so it keeps no mode fragment at all.
	md := SampledMode()
	point := RunSpec{Cfg: cfg, Workload: "ed", Control: Control{Policy: Static{N: 4}}, Mode: md, Power: &pp}
	if got, want := point.Key(), key+"|ed|static/4|power/b=4,lock=-1|sampled/"+md.Params.Key(); got != want {
		t.Errorf("budget sweep key = %q, want %q", got, want)
	}
	adaptive, err := ParseController("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	ad := RunSpec{Cfg: cfg, Workload: "ed", Control: adaptive, Mode: md, Power: &pp}
	want := key + "|ed|policy/SAT+BAT|monitor/{Interval:64 DriftTol:1 CSFloorCycles:16 BusFloorCycles:24 MaxRetrains:8}|power/b=4,lock=-1"
	if got := ad.Key(); got != want {
		t.Errorf("adaptive budget key = %q, want %q", got, want)
	}
	if ad.ExactNote() == "" {
		t.Error("adaptive run under a budget forced exact without a note")
	}
}

// TestRunCacheKeysTrainingFragment pins the training fragment: absent
// at DefaultTrainingParams, whether Training is nil or spells the
// defaults out, and keyed before the mode fragment once a parameter
// differs, so a non-default stability window never collides with the
// paper's.
func TestRunCacheKeysTrainingFragment(t *testing.T) {
	base := RunSpec{Cfg: machine.DefaultConfig(), Workload: "isort", Control: Control{Policy: SAT{}}}
	def := DefaultTrainingParams()
	spelled := base
	spelled.Training = &def
	if got, want := spelled.Key(), base.Key(); got != want {
		t.Errorf("default training parameters moved the key:\n got %s\nwant %s", got, want)
	}
	w0 := def
	w0.StabilityWindow = 0
	win := base
	win.Training, win.Mode = &w0, SampledMode()
	want := ConfigKey(base.Cfg) + "|isort|policy/SAT" +
		"|train/{MaxTrainFraction:0.01 StabilityWindow:0 StabilityTol:0.05 BATEarlyOutCycles:10000 MinIterations:8}" +
		"|sampled/" + SampledMode().Params.Key()
	if got := win.Key(); got != want {
		t.Errorf("window-0 key = %q, want %q", got, want)
	}
}

// TestHybridKeyMatchesOldParams pins the hybrid fragment to the %+v
// rendering of HybridParams when it still carried the monitor, the
// probe budget, the residual decay and the recheck cadence, which no
// caller set: tuned keys stay the addresses they always were.
func TestHybridKeyMatchesOldParams(t *testing.T) {
	type oldMonitorParams struct {
		Interval                      int
		DriftTol                      float64
		CSFloorCycles, BusFloorCycles float64
		MaxRetrains                   int
	}
	type oldHybridParams struct {
		Monitor                   oldMonitorParams
		ProbeIters                int
		MinGain                   float64
		MaxProbes                 int
		ResidualHigh, ResidualLow float64
		ResidualDecay             float64
		RecheckIntervals          int
	}
	for _, hp := range []HybridParams{{}, {ProbeIters: 32, MinGain: 0.05}, {ResidualHigh: 0.8}, {ProbeIters: 7, MinGain: 1e-7, ResidualHigh: 0.35, ResidualLow: 0.125}} {
		old := oldHybridParams{ProbeIters: hp.ProbeIters, MinGain: hp.MinGain, ResidualHigh: hp.ResidualHigh, ResidualLow: hp.ResidualLow}
		want := fmt.Sprintf("policy/hybrid/seed=combined/%+v|train/%+v", old, TrainingParams{})
		if got := policyKey(Hybrid{HP: hp}, 32); got != want {
			t.Errorf("%+v:\n got %s\nwant %s", hp, got, want)
		}
	}
}

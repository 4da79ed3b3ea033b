package core

import (
	"encoding/json"
	"testing"
	"unsafe"

	"fdt/internal/counters"
	"fdt/internal/machine"
)

// corunSpec co-schedules two contrasting synthetic tenants on an
// 8-core machine: a CS-heavy kernel and a bandwidth-heavy one.
func corunSpec(mp machine.Mapping) RunSpec {
	ctl := Control{Policy: Combined{}}
	return RunSpec{Cfg: machine.DefaultConfig().WithCores(8), Mapping: mp, Teams: []Team{
		{Workload: "cs-synth", Factory: newSynthFactory(40, 2000, 600, 0), Control: ctl},
		{Workload: "bw-synth", Factory: newSynthFactory(40, 400, 0, 48), Control: ctl},
	}}
}

func TestCorunTwoTeams(t *testing.T) {
	s := corunSpec(machine.MapPacked)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(s.Cfg)
	res := s.RunOn(m)
	if len(res.Teams) != 2 {
		t.Fatalf("%d teams, want 2", len(res.Teams))
	}
	if res.TotalCycles == 0 {
		t.Fatal("zero makespan")
	}
	var busSum uint64
	var shareSum float64
	for _, tr := range res.Teams {
		if tr.TotalCycles == 0 || tr.TotalCycles > res.TotalCycles {
			t.Errorf("%s: cycles %d outside (0, makespan %d]", tr.Team, tr.TotalCycles, res.TotalCycles)
		}
		if len(tr.Kernels) != 1 {
			t.Errorf("%s: %d kernels, want 1", tr.Team, len(tr.Kernels))
		}
		busSum += tr.BusBusyCycles
		shareSum += tr.BusShare
	}
	// Per-team bus attribution partitions the global counter exactly
	// (the "team-bus-partition" invariant, re-checked here end to end).
	if global := m.Ctrs.Counter(counters.BusBusyCycles).Read(); busSum != global {
		t.Errorf("team bus cycles sum %d != global %d", busSum, global)
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("bus shares sum to %v, want 1", shareSum)
	}
	// The attribution must discriminate: nearly all traffic is the
	// bandwidth-heavy tenant's.
	if res.Teams[1].BusShare < 0.9 {
		t.Errorf("bw-synth bus share %.3f, want >= 0.9", res.Teams[1].BusShare)
	}
	// Each tenant's controller decided independently from its own
	// counters: the CS-heavy tenant throttles below the bandwidth-heavy
	// tenant's team size.
	csN := res.Teams[0].Kernels[0].Decision.Threads
	bwN := res.Teams[1].Kernels[0].Decision.Threads
	if csN >= bwN {
		t.Errorf("cs-synth chose %d threads, bw-synth %d; want cs < bw", csN, bwN)
	}
}

func TestCorunCacheHit(t *testing.T) {
	runs := NewRuns(0, nil)
	s := corunSpec(machine.MapScattered)
	a := s.Run(runs)
	b := s.Run(runs)
	if a.TotalCycles != b.TotalCycles || len(a.Teams) != len(b.Teams) {
		t.Fatalf("memoized corun differs: %+v vs %+v", a, b)
	}
	if hits, misses := runs.Stats(); hits != 1 || misses != 1 {
		t.Errorf("run cache %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

func TestSoloOnPartitionControl(t *testing.T) {
	co := corunSpec(machine.MapPacked)
	solo := co.Solo(1)
	if err := solo.Validate(); err != nil {
		t.Fatal(err)
	}
	if co.Key() == solo.Key() {
		t.Fatalf("solo shares the co-run's key %q", co.Key())
	}
	runs := NewRuns(0, nil)
	sr := solo.Run(runs)
	if len(sr.Teams) != 2 || sr.Teams[0].Team != "t0:idle" || sr.Teams[0].TotalCycles != 0 {
		t.Fatalf("solo teams %+v, want an idle t0 and the running tenant", sr.Teams)
	}
	st := sr.Teams[1]
	if st.TotalCycles == 0 {
		t.Fatal("zero solo cycles")
	}
	// Alone on the machine, the tenant owns all bus traffic.
	if st.BusShare < 0.999 {
		t.Errorf("solo bus share %.3f, want ~1", st.BusShare)
	}
	// A co-runner can only add contention on the shared bus: the
	// bandwidth-heavy tenant must not run faster co-scheduled.
	if ct := co.Run(runs).Teams[1]; ct.TotalCycles < st.TotalCycles {
		t.Errorf("bw-synth co-run %d cycles faster than solo %d", ct.TotalCycles, st.TotalCycles)
	}
}

func TestCorunMappingError(t *testing.T) {
	// SMT-aware mapping needs a plane per tenant; a 1-context machine
	// cannot host two teams.
	s := corunSpec(machine.MapSMT)
	if s.Cfg.SMTContexts > 1 {
		t.Skip("default config has SMT planes")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("smt mapping on 1-context machine: want error")
	}
}

// An infeasible co-run asked for twice must fail Validate both times
// and never reach a run cache: a failure is not a result to memoize.
func TestCorunInfeasibleNeverCached(t *testing.T) {
	before, _, _ := defaultRuns.Usage()
	s := corunSpec(machine.MapSMT)
	for _, spec := range []RunSpec{s, s, s.Solo(0), s.Solo(0)} {
		if err := spec.Validate(); err == nil {
			t.Fatalf("%s: want a mapping error", spec.Key())
		}
	}
	if entries, _, _ := defaultRuns.Usage(); entries != before {
		t.Errorf("run cache holds %d entries after rejected specs, want %d", entries, before)
	}
}

func TestValidateTeams(t *testing.T) {
	s := corunSpec(machine.MapPacked)
	hc, _ := ParseController("hillclimb")
	cases := map[string]func(*RunSpec){
		"measured team":       func(s *RunSpec) { s.Teams[0].Control = hc },
		"team without policy": func(s *RunSpec) { s.Teams[1].Control = Control{} },
		"ladder":              func(s *RunSpec) { s.Cfg = s.Cfg.WithFreq(machine.DefaultLadder()) },
		"top-level workload":  func(s *RunSpec) { s.Workload = "x" },
		"top-level control":   func(s *RunSpec) { s.Control = Control{Policy: SAT{}} },
		"one of three idle":   func(s *RunSpec) { s.Teams = append(s.Teams, Team{}) },
		"every team idle":     func(s *RunSpec) { s.Teams = make([]Team, 2) },
		"9 teams on 8 cores": func(s *RunSpec) {
			for len(s.Teams) < 9 {
				s.Teams = append(s.Teams, s.Teams[0])
			}
		},
	}
	for name, mutate := range cases {
		c := s
		c.Teams = append([]Team(nil), s.Teams...)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

// A co-run reloaded from the disk store after a restart must
// re-marshal byte-identical to the run that was stored, without
// simulating again.
func TestCorunStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	runs := storeRuns(t, dir)
	s := corunSpec(machine.MapPacked)
	coldJSON, err := json.Marshal(s.Run(runs))
	if err != nil {
		t.Fatal(err)
	}
	if st := runs.Store().Stats(); st.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.Puts)
	}

	// "Restart": a new run cache on the reopened store.
	runs = storeRuns(t, dir)
	warmJSON, err := json.Marshal(s.Run(runs))
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Computes(); got != 0 {
		t.Errorf("warm computes = %d, want 0", got)
	}
	if string(warmJSON) != string(coldJSON) {
		t.Errorf("reloaded co-run differs:\n got %s\nwant %s", warmJSON, coldJSON)
	}
}

// A co-run's energy counts like a single run's: the run cache that
// simulates it adds the machine's active-core cycles to its total, and
// a memoized co-run adds nothing.
func TestCorunAddsEnergy(t *testing.T) {
	runs := NewRuns(0, nil)
	s := corunSpec(machine.MapPacked)
	res := s.Run(runs)
	want := res.AvgActiveCores * float64(res.TotalCycles)
	if got := runs.Energy(); want == 0 || got < 0.999*want {
		t.Fatalf("energy total %g after a co-run, want at least its %g active-core cycles", got, want)
	}
	before := runs.Energy()
	s.Run(runs)
	if got := runs.Energy(); got != before {
		t.Errorf("memoized co-run moved the energy total %g -> %g", before, got)
	}
}

// The cache sizer must see a co-run's nested team results.
func TestRunResultBytesCountsTeams(t *testing.T) {
	res := corunSpec(machine.MapPacked).Run(NewRuns(0, nil))
	var payload uint64
	for _, tr := range res.Teams {
		for _, k := range tr.Kernels {
			payload += uint64(unsafe.Sizeof(k)) + uint64(len(k.Kernel))
			for _, p := range k.Phases {
				payload += uint64(unsafe.Sizeof(p)) + uint64(len(p.Trigger))
			}
		}
	}
	if payload == 0 {
		t.Fatal("co-run teams carry no kernel payload")
	}
	if got := runResultBytes(res); got <= payload {
		t.Errorf("runResultBytes = %d, want above the teams' kernel payloads (%d)", got, payload)
	}
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"fdt/internal/machine"
	"fdt/internal/mem"
	"fdt/internal/runner"
	"fdt/internal/store"
)

// Runs memoizes deterministic simulated executions. Every run is a
// pure function of (machine config, workload identity, policy) — the
// simulator admits no host nondeterminism — so figures that sweep the
// same baselines (Fig 8, 14 and 15 all run the twelve workloads over
// the same static thread counts) share one simulation per distinct run
// (keyed by RunSpec.Key; an empty workload key bypasses the cache).
//
// A Runs may write through to a disk store, and it sums the energy of
// every run it simulates. Each owner (a report, a daemon, a test)
// holds its own value and reads its own counters; a test that needs
// cold runs builds a fresh one. A nil *Runs stands for one package
// default. A Runs is safe for concurrent use.
type Runs struct {
	cache  runner.Cache[RunResult]
	store  atomic.Pointer[store.Store]
	mu     sync.Mutex
	energy float64 // summed Energy.Total of every simulated run
}

// NewRuns returns an empty run cache holding at most limit runs
// (0 = unlimited; evicted runs are re-simulated on their next use),
// backed by st when st is non-nil.
func NewRuns(limit int, st *store.Store) *Runs {
	r := &Runs{}
	r.cache.SetSizer(runResultBytes)
	r.cache.SetLimit(limit)
	r.attach(st)
	return r
}

// defaultRuns is what a nil *Runs means.
var defaultRuns = NewRuns(0, nil)

func (r *Runs) orDefault() *Runs {
	if r == nil {
		return defaultRuns
	}
	return r
}

// simulate runs s on a fresh machine and adds the machine's energy
// (the table-driven total on a P-state ladder, active core-cycles on
// a flat machine) to r's total.
func (r *Runs) simulate(s RunSpec) RunResult {
	m := machine.MustNew(s.Cfg)
	res := s.RunOn(m)
	e := m.Power.Energy(m.Eng.Now()).Total
	r.mu.Lock()
	r.energy += e
	r.mu.Unlock()
	return res
}

// Stats reports run-cache hits and misses.
func (r *Runs) Stats() (hits, misses uint64) { return r.orDefault().cache.Stats() }

// Usage reports the cache's population: entry count, estimated bytes,
// and entries evicted by the limit.
func (r *Runs) Usage() (entries int, bytes, evictions uint64) {
	r = r.orDefault()
	return r.cache.Len(), r.cache.Bytes(), r.cache.Evictions()
}

// Computes reports how many cache misses actually simulated (as
// opposed to loading from the store). Zero computes over a warm store
// is the restart-resilience acceptance criterion.
func (r *Runs) Computes() uint64 { return r.orDefault().cache.Computes() }

// Energy reports the total simulated energy of every run r simulated,
// in nominal-active-core cycle units. Runs served from memory or from
// the store add nothing.
func (r *Runs) Energy() float64 {
	r = r.orDefault()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.energy
}

// ResetRunCache drops every run the package default memoized and
// zeroes its statistics. It exists for cmd/fdtbench until ROADMAP item
// 2 moves that call to a value fdtbench owns.
func ResetRunCache() { defaultRuns.cache.Reset() }

// RunCacheStats is Stats of the package default. It exists for
// cmd/fdtbench until ROADMAP item 2 moves that call.
func RunCacheStats() (hits, misses uint64) { return defaultRuns.Stats() }

// RunCacheComputes is Computes of the package default. It exists for
// cmd/fdtbench until ROADMAP item 2 moves that call.
func RunCacheComputes() uint64 { return defaultRuns.Computes() }

// runResultBytes estimates a memoized RunResult's heap footprint for
// the cache's byte accounting: the structs plus their string and
// slice payloads, a partitioned run's team results included.
func runResultBytes(r RunResult) uint64 {
	size := uint64(unsafe.Sizeof(r))
	size += uint64(len(r.Workload) + len(r.Policy) + len(r.Mapping))
	for _, k := range r.Kernels {
		size += uint64(unsafe.Sizeof(k))
		size += uint64(len(k.Kernel))
		for _, p := range k.Phases {
			size += uint64(unsafe.Sizeof(p))
			size += uint64(len(p.Trigger))
		}
	}
	if r.Sampled != nil {
		size += uint64(unsafe.Sizeof(*r.Sampled))
	}
	for _, t := range r.Teams {
		// The recursive call counts the embedded RunResult's struct.
		size += uint64(unsafe.Sizeof(t)-unsafe.Sizeof(t.RunResult)) + uint64(len(t.Team)) + runResultBytes(t.RunResult)
	}
	return size
}

// ConfigKey fingerprints a machine configuration for cache keying.
// machine.Config is a tree of value types, so the printed form is a
// complete content address. The print goes through a view struct
// holding the pre-DVFS fields so that a trivial ladder contributes
// nothing — single-frequency keys are byte-identical to pre-DVFS
// releases, mirroring the exact-mode rule for Mode.key — while a
// non-trivial ladder appends its own fragment.
func ConfigKey(cfg machine.Config) string {
	legacy := struct {
		Mem         mem.Config
		IssueWidth  int
		ForkCost    uint64
		SMTContexts int
	}{cfg.Mem, cfg.IssueWidth, cfg.ForkCost, cfg.SMTContexts}
	key := fmt.Sprintf("%+v", legacy)
	if !cfg.Freq.Trivial() {
		key += "|freq/" + cfg.Freq.Key()
	}
	return key
}

// policyKey resolves a policy to its cache identity on a machine with
// the given core count. Static counts are normalized (Static{} and
// Static{N: cores} are the same run); trained policies are identified
// by name, which is sufficient because RunSpec always trains with
// DefaultTrainingParams; the tunable measured policies add their
// tuning. Custom controllers must not use the cache.
//
// A memoized RunResult carries the Policy label of whichever
// equivalent policy simulated first ("static-all" vs "static-32");
// the label is display-only, every measured quantity is identical.
func policyKey(pol Policy, cores int) string {
	switch p := pol.(type) {
	case Static:
		return fmt.Sprintf("static/%d", p.StaticThreads(cores))
	case HillClimb:
		return fmt.Sprintf("policy/hill-climb/%+v", p)
	case Hybrid:
		// The seed and the training parameters were once knobs; their
		// fixed values keep the fragments they rendered as defaults.
		return fmt.Sprintf("policy/hybrid/seed=combined/%+v|train/%+v", p.HP, TrainingParams{})
	}
	return "policy/" + pol.Name()
}

// machineContexts mirrors machine.Machine.Contexts for a config.
func machineContexts(cfg machine.Config) int {
	return cfg.Mem.Cores * cfg.SMTContexts
}

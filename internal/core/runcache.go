package core

import (
	"fmt"
	"unsafe"

	"fdt/internal/machine"
	"fdt/internal/mem"
	"fdt/internal/runner"
)

// The run cache memoizes deterministic simulated executions for the
// lifetime of the process. Every run is a pure function of (machine
// config, workload identity, policy) — the simulator admits no host
// nondeterminism — so figures that sweep the same baselines (Fig 8,
// 14 and 15 all run the twelve workloads over the same static thread
// counts) share one simulation per distinct run instead of
// re-simulating it per figure.
//
// Cache keys are content-addressed: the machine config's printed
// fields, the caller-supplied workload key, and the policy's resolved
// identity. A run is cacheable only when the caller can name the
// workload (including any non-default parameters) — closures carry no
// identity of their own, so an empty workload key bypasses the cache.
var runCache runner.Cache[RunResult]

func init() {
	runCache.SetSizer(runResultBytes)
}

// runResultBytes estimates a memoized RunResult's heap footprint for
// the cache's byte accounting: the structs plus their string and
// slice payloads.
func runResultBytes(r RunResult) uint64 {
	size := uint64(unsafe.Sizeof(r))
	size += uint64(len(r.Workload) + len(r.Policy))
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
	return size
}

// RunCacheStats reports process-lifetime run-cache hits and misses.
func RunCacheStats() (hits, misses uint64) { return runCache.Stats() }

// RunCacheUsage reports the run cache's population: entry count,
// estimated bytes, and entries evicted by the cap.
func RunCacheUsage() (entries int, bytes, evictions uint64) {
	return runCache.Len(), runCache.Bytes(), runCache.Evictions()
}

// SetRunCacheLimit caps the memoized run count (0 = unlimited): large
// batch sweeps can bound their memory at the cost of re-simulating
// whatever they revisit after eviction.
func SetRunCacheLimit(n int) { runCache.SetLimit(n) }

// ResetRunCache drops every memoized run and zeroes the statistics.
// Tests and benchmarks use it to measure cold-cache behaviour.
func ResetRunCache() { runCache.Reset() }

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
// DefaultTrainingParams. Custom controllers must not use the cache.
//
// A memoized RunResult carries the Policy label of whichever
// equivalent policy simulated first ("static-all" vs "static-32");
// the label is display-only, every measured quantity is identical.
func policyKey(pol Policy, cores int) string {
	if s, ok := pol.(Static); ok {
		return fmt.Sprintf("static/%d", s.StaticThreads(cores))
	}
	return "policy/" + pol.Name()
}

// machineContexts mirrors machine.Machine.Contexts for a config.
func machineContexts(cfg machine.Config) int {
	return cfg.Mem.Cores * cfg.SMTContexts
}

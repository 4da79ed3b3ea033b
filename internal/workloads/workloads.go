// Package workloads re-implements the paper's twelve multi-threaded
// applications (Table 2) against the simulated machine. Each workload
// performs its real computation in Go (histograms are really counted,
// keys really sorted, fields really advanced) while driving the
// simulator with the memory accesses, critical sections and barriers
// the paper describes — so tests can verify both the computed results
// and the timing behaviour. Where every pass computes the same values
// (bscholes' option prices, sconv's convolved frame), each distinct
// value is computed once per run, while Exec still charges every pass
// its work and the pass's loads and stores still run.
//
// Inputs are scaled relative to the paper (DESIGN.md Section 5): the
// phenomena FDT exploits depend on ratios — the fraction of time in
// critical sections, the per-thread bus demand — which each workload
// documents and tunes to land in the paper's reported ranges.
package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// Class is the paper's three-way workload taxonomy (Table 2).
type Class int

const (
	// CSLimited marks workloads limited by data-synchronization.
	CSLimited Class = iota
	// BWLimited marks workloads limited by off-chip bandwidth.
	BWLimited
	// Scalable marks workloads limited by neither.
	Scalable
)

// String names the class as in Table 2.
func (c Class) String() string {
	switch c {
	case CSLimited:
		return "CS-limited"
	case BWLimited:
		return "BW-limited"
	case Scalable:
		return "Scalable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Verifier is implemented by workloads whose computed results can be
// checked against a serial reference after a run.
type Verifier interface {
	// Verify reports an error if the workload's computation produced
	// a wrong answer.
	Verify() error
}

// Info describes one registered workload.
type Info struct {
	// Name is the registry key ("pagemine", "isort", ...).
	Name string
	// Class is the Table-2 category.
	Class Class
	// Problem is Table 2's problem description.
	Problem string
	// Input is Table 2's input-set column (our scaled defaults).
	Input string
	// Factory builds the workload with default parameters.
	Factory core.Factory
}

var registry []Info

// extras holds workloads beyond the paper's Table 2 (synthetic
// stress cases, ablation drivers). They resolve through ByName like
// any workload but stay out of All()/ByClass(), so Table 2 and the
// whole-suite figures keep the paper's twelve applications.
var extras []Info

func register(i Info)      { registry = append(registry, i) }
func registerExtra(i Info) { extras = append(extras, i) }

// All lists every registered workload in Table-2 order.
func All() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Extras lists the registered non-Table-2 workloads.
func Extras() []Info {
	out := make([]Info, len(extras))
	copy(out, extras)
	return out
}

// ByClass lists workloads of one class in registry order.
func ByClass(c Class) []Info {
	var out []Info
	for _, i := range registry {
		if i.Class == c {
			out = append(out, i)
		}
	}
	return out
}

// ByName finds a workload by registry key, consulting the Table-2
// registry first and the extras after it.
func ByName(name string) (Info, bool) {
	for _, i := range registry {
		if i.Name == name {
			return i, true
		}
	}
	for _, i := range extras {
		if i.Name == name {
			return i, true
		}
	}
	return Info{}, false
}

// rng is a small deterministic generator (xorshift64*) used to build
// reproducible synthetic inputs. Workloads must not depend on host
// randomness: identical runs must produce identical simulations.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// float64 returns a value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// mustMachine asserts workload constructors got a machine.
func mustMachine(m *machine.Machine, name string) {
	if m == nil {
		panic(fmt.Sprintf("workloads: %s constructed without a machine", name))
	}
}

package machine

import "fmt"

// Mapping is a thread-to-core mapping policy: how a multi-tenant
// machine partitions its hardware contexts among concurrent teams
// (Tousimojarad & Vanderbauwhede, arXiv:1403.8020, study exactly
// these three placements under multiprogramming). With one team every
// mapping degenerates to the identity placement — all contexts, in
// the plane-major order the single-team runtime has always used — so
// the mapping dimension is invisible until a second team exists.
type Mapping int

const (
	// MapPacked gives each team a contiguous block of cores (all SMT
	// planes included): team t of n owns cores [t*C/n, (t+1)*C/n).
	// Contiguous blocks share ring locality — a team's cores sit next
	// to each other — but a team's traffic concentrates on the L3
	// banks nearest its block.
	MapPacked Mapping = iota
	// MapScattered interleaves cores round-robin: team t of n owns
	// cores {c : c mod n == t}. Every team's cores spread across the
	// whole ring, equalizing average hop distance at the cost of
	// neighborhood locality.
	MapScattered
	// MapSMT co-schedules teams onto the same cores on different SMT
	// planes: team t of n owns plane(s) [t*S/n, (t+1)*S/n) of every
	// core. Teams share issue width and private caches — the
	// throughput-versus-interference trade the SMT-aware placement in
	// arXiv:1403.8020 navigates. Requires at least one plane per team.
	MapSMT
)

// Mappings lists every mapping policy in display order.
func Mappings() []Mapping { return []Mapping{MapPacked, MapScattered, MapSMT} }

// String names the mapping as the CLIs spell it.
func (mp Mapping) String() string {
	switch mp {
	case MapPacked:
		return "packed"
	case MapScattered:
		return "scattered"
	case MapSMT:
		return "smt"
	default:
		return fmt.Sprintf("Mapping(%d)", int(mp))
	}
}

// Describe is the one-line description `fdtsim -list` prints.
func (mp Mapping) Describe() string {
	switch mp {
	case MapPacked:
		return "contiguous core blocks per team (ring locality, bank hot spots)"
	case MapScattered:
		return "round-robin core interleave per team (uniform ring distance)"
	case MapSMT:
		return "teams share every core on separate SMT planes (needs SMTContexts >= teams)"
	default:
		return "unknown mapping"
	}
}

// ParseMapping resolves a CLI spelling to a mapping policy.
func ParseMapping(s string) (Mapping, error) {
	switch s {
	case "packed", "":
		return MapPacked, nil
	case "scattered":
		return MapScattered, nil
	case "smt", "smt-aware":
		return MapSMT, nil
	default:
		return 0, fmt.Errorf("machine: unknown mapping %q (want packed, scattered or smt)", s)
	}
}

// CheckMapping reports whether mp gives each of n teams at least one
// context on a machine of this configuration.
func (c Config) CheckMapping(mp Mapping, n int) error {
	for t := 0; t < n; t++ {
		if _, err := c.Partition(mp, t, n); err != nil {
			return err
		}
	}
	return nil
}

// FeasibleMappings lists, in display order, the mappings that can host
// n teams on a machine of this configuration.
func (c Config) FeasibleMappings(n int) []Mapping {
	var out []Mapping
	for _, mp := range Mappings() {
		if c.CheckMapping(mp, n) == nil {
			out = append(out, mp)
		}
	}
	return out
}

// Partition computes the hardware contexts team t of n owns on a
// machine of this configuration, in the order the team's threads are
// placed on them. Within a team, contexts are ordered plane-major —
// every owned core once before any core hosts a second context —
// preserving the single-team runtime's spread-first placement. Returns
// an error when the split leaves team t without a context. It is pure
// geometry, so a run can be checked before any machine is built.
func (c Config) Partition(mp Mapping, t, n int) ([]int, error) {
	if n < 1 || t < 0 || t >= n {
		return nil, fmt.Errorf("machine: partition team %d of %d", t, n)
	}
	cores, planes := c.Mem.Cores, c.SMTContexts
	var myCores []int
	myPlanes := make([]int, 0, planes)
	for p := 0; p < planes; p++ {
		myPlanes = append(myPlanes, p)
	}
	switch mp {
	case MapPacked:
		lo, hi := t*cores/n, (t+1)*cores/n
		for c := lo; c < hi; c++ {
			myCores = append(myCores, c)
		}
	case MapScattered:
		for c := t; c < cores; c += n {
			myCores = append(myCores, c)
		}
	case MapSMT:
		for c := 0; c < cores; c++ {
			myCores = append(myCores, c)
		}
		lo, hi := t*planes/n, (t+1)*planes/n
		myPlanes = myPlanes[:0]
		for p := lo; p < hi; p++ {
			myPlanes = append(myPlanes, p)
		}
	default:
		return nil, fmt.Errorf("machine: unknown mapping %v", mp)
	}
	if len(myCores) == 0 || len(myPlanes) == 0 {
		return nil, fmt.Errorf("machine: mapping %s leaves team %d of %d without a context (%d cores, %d SMT planes)",
			mp, t, n, cores, planes)
	}
	ctxs := make([]int, 0, len(myCores)*len(myPlanes))
	for _, p := range myPlanes {
		for _, c := range myCores {
			ctxs = append(ctxs, p*cores+c)
		}
	}
	return ctxs, nil
}

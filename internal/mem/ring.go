package mem

// Ring models the bidirectional on-chip ring of Table 1. Each core
// occupies one ring stop; the eight L3 banks (with their directory
// slices) sit at evenly spaced stops. Messages take the shorter
// direction; latency is hops times the per-hop latency. Link
// contention is not modeled — the paper's ring is 64 bytes wide with
// separate control and data rings, so queueing there is negligible
// next to the off-chip bus, which is the bottleneck under study.
//
// Every latency a message can take is fixed by the geometry, so the
// ring is a cores×banks table built once.
type Ring struct {
	banks int
	lat   []uint64 // lat[core*banks+bank]: core's stop to bank's stop
}

// NewRing builds a ring with one stop per core and L3 banks placed at
// stops bank*(cores/banks).
func NewRing(cores, l3Banks int, hopLat uint64) *Ring {
	r := &Ring{banks: l3Banks, lat: make([]uint64, cores*l3Banks)}
	for c := 0; c < cores; c++ {
		for b := 0; b < l3Banks; b++ {
			r.lat[c*l3Banks+b] = hops(cores, c, bankStop(cores, l3Banks, b)) * hopLat
		}
	}
	return r
}

// bankStop reports the ring stop of an L3 bank.
func bankStop(stops, banks, bank int) int {
	return bank * (stops / banks)
}

// hops reports the minimum hop count between two stops on a
// bidirectional ring of the given size.
func hops(stops, a, b int) uint64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if other := stops - d; other < d {
		d = other
	}
	return uint64(d)
}

// CoreToBank reports the one-way latency from a core's stop to an L3
// bank's stop.
func (r *Ring) CoreToBank(core, bank int) uint64 {
	return r.lat[core*r.banks+bank]
}

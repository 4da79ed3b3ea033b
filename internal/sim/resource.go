package sim

// Resource models a single server with deterministic service times —
// an off-chip bus, a DRAM bank, an L3 bank port. Callers reserve the
// resource for a number of cycles; if it is busy the slot starts at
// the earliest free cycle. Reservation order is first-come-first-served
// in simulated time.
//
// The reservation protocol is "reserve then wait": the requester
// immediately extends the resource's horizon with ReserveAt and then,
// if it must, waits (Proc.Await, inside an Op) until its own slot
// begins. Because only one process runs at a time, this is race-free
// and serves requests in arrival order.
type Resource struct {
	name string
	// nextFree is the first cycle at which the resource is idle.
	nextFree uint64
	// busy accumulates total occupied cycles (the basis for
	// utilization counters such as the paper's BUS_DRDY_CLOCKS).
	busy uint64
	// grants counts completed reservations.
	grants uint64
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name reports the diagnostic name.
func (r *Resource) Name() string { return r.name }

// BusyCycles reports the cumulative cycles the resource has been
// reserved for. This includes reservations whose slot lies in the
// future of the current clock; sample it only at points where the
// model guarantees no in-flight reservations, or treat it as the
// monotone counter hardware would expose.
func (r *Resource) BusyCycles() uint64 { return r.busy }

// NextFree reports the first cycle at which the resource is idle.
func (r *Resource) NextFree() uint64 { return r.nextFree }

// ReserveAt reserves the resource for occupancy cycles in the first
// free slot that starts no earlier than now, extends the horizon,
// accrues busy cycles, and returns the slot's start. It never blocks:
// a demand requester then waits for the slot itself, while posted
// writebacks consume bandwidth without stalling the evicting core.
func (r *Resource) ReserveAt(now, occupancy uint64) (start uint64) {
	start = r.nextFree
	if start < now {
		start = now
	}
	r.nextFree = start + occupancy
	r.busy += occupancy
	r.grants++
	return start
}

// ResourceState is a resource's complete checkpointable state: the
// reservation horizon plus the utilization counters.
type ResourceState struct {
	NextFree uint64
	Busy     uint64
	Grants   uint64
}

// State captures the resource's current state. Meaningful at any
// time; for checkpoint/restore use it only at quiescent points, where
// no process is sleeping on an in-flight reservation.
func (r *Resource) State() ResourceState {
	return ResourceState{NextFree: r.nextFree, Busy: r.busy, Grants: r.grants}
}

// Restore overwrites the resource's state from a checkpoint.
func (r *Resource) Restore(st ResourceState) {
	r.nextFree = st.NextFree
	r.busy = st.Busy
	r.grants = st.Grants
}

// Reset clears utilization counters but keeps the reservation horizon,
// so resetting mid-simulation does not retroactively free the
// resource.
func (r *Resource) Reset() {
	r.busy = 0
	r.grants = 0
}

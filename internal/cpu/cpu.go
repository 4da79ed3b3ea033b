// Package cpu models one in-order core of the simulated CMP. Table 1
// specifies two-wide in-order five-stage pipelines; we model such a
// core as a compute server that retires issue-width instructions per
// cycle and stalls for the full latency of every memory access (an
// in-order core without speculation cannot hide misses). This is the
// standard abstraction for studying throughput-level phenomena — and
// both of the paper's limiters (critical-section serialization and
// bus bandwidth) are throughput phenomena.
package cpu

import (
	"fdt/internal/invariant"
	"fdt/internal/mem"
	"fdt/internal/sim"
)

// CPU is a thread's execution context on a specific core.
type CPU struct {
	core  int
	width uint64
	proc  *sim.Proc
	port  *mem.Port
	// load, when set, reports how many hardware contexts currently
	// share this core (SMT): co-resident contexts divide the issue
	// width, so compute slows by that factor.
	load func() int

	// fscale, when set, reports the core's current cycle-time
	// multiplier as an exact rational (nominal MHz / current MHz):
	// compute work is dilated by num/den while memory timing stays
	// wall-clock-anchored. Nil — the default — is the fixed-frequency
	// machine, with zero overhead on the compute path. facc carries
	// the division remainder between calls so dilation loses no
	// cycles to rounding (Σ dilated == Σ exact·num/den, truncated
	// once at the end rather than per call).
	fscale func() (num, den uint64)
	facc   uint64

	// led, when set, charges every cycle the CPU advances to the
	// context's conservation ledger: compute to Busy, memory-access
	// stalls to Stall. Nil is the disabled harness.
	led *invariant.Ledger

	// attr is this thread's team bus-attribution handle. The port is
	// shared per-core, so under SMT another team's context may have
	// installed its own handle between this CPU's accesses — re-install
	// before every port call.
	attr *mem.TeamCtrs

	instret uint64
}

// New binds a CPU façade to a core, its simulation process, and its
// memory port.
func New(core int, width int, proc *sim.Proc, port *mem.Port) *CPU {
	if width <= 0 {
		width = 1
	}
	return &CPU{core: core, width: uint64(width), proc: proc, port: port}
}

// Core reports the core index this CPU occupies.
func (c *CPU) Core() int { return c.core }

// Proc exposes the simulation process (used by the threading runtime
// for parking and waking).
func (c *CPU) Proc() *sim.Proc { return c.proc }

// CycleCount reads the core's cycle counter — the paper's "read the
// cycle counter at entry and exit" instrumentation primitive.
func (c *CPU) CycleCount() uint64 { return c.proc.Now() }

// Instret reports instructions retired (diagnostics).
func (c *CPU) Instret() uint64 { return c.instret }

// SetContention installs the SMT co-residency probe (see the load
// field). A nil probe — the default — models a dedicated core.
func (c *CPU) SetContention(load func() int) { c.load = load }

// SetFreqScale installs the DVFS cycle-time probe (see the fscale
// field). A nil probe — the default — models a fixed-frequency core.
func (c *CPU) SetFreqScale(f func() (num, den uint64)) { c.fscale = f }

// dilate converts d nominal compute cycles into wall cycles at the
// core's current frequency, carrying the remainder across calls.
func (c *CPU) dilate(d uint64) uint64 {
	if c.fscale == nil {
		return d
	}
	num, den := c.fscale()
	if num == den {
		return d
	}
	t := d*num + c.facc
	c.facc = t % den
	return t / den
}

// SetLedger installs the context's conservation ledger (see the led
// field). Nil — the default — disables the accounting.
func (c *CPU) SetLedger(l *invariant.Ledger) { c.led = l }

// SetTeamCtrs installs the thread's team bus-attribution handle (see
// the attr field). Nil — the default — leaves traffic un-attributed.
func (c *CPU) SetTeamCtrs(tc *mem.TeamCtrs) { c.attr = tc }

// slowdown reports the current compute derating from SMT sharing.
func (c *CPU) slowdown() uint64 {
	if c.load == nil {
		return 1
	}
	if l := c.load(); l > 1 {
		return uint64(l)
	}
	return 1
}

// Compute advances the core through cycles of pure ALU work.
func (c *CPU) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	c.instret += cycles * c.width
	d := c.dilate(cycles * c.slowdown())
	c.proc.Advance(d)
	if c.led != nil {
		c.led.Busy += d
	}
}

// Exec retires instrs ALU instructions at the pipeline's issue width.
func (c *CPU) Exec(instrs uint64) {
	if instrs == 0 {
		return
	}
	c.instret += instrs
	d := c.dilate((instrs*c.slowdown() + c.width - 1) / c.width)
	c.proc.Advance(d)
	if c.led != nil {
		c.led.Busy += d
	}
}

// Load performs a data load from addr, stalling for the full access.
func (c *CPU) Load(addr uint64) {
	t0 := c.proc.Now()
	c.port.SetTeamCtrs(c.attr)
	c.port.Load(c.proc, addr)
	c.stalled(t0)
}

// Store performs a data store to addr.
func (c *CPU) Store(addr uint64) {
	t0 := c.proc.Now()
	c.port.SetTeamCtrs(c.attr)
	c.port.Store(c.proc, addr)
	c.stalled(t0)
}

// LoadStride performs n data loads, from base on, stride bytes apart,
// as one memory operation (mem.Port.LoadStride): the access pattern
// of a column walk, which costs what n Loads back to back cost.
func (c *CPU) LoadStride(base, stride uint64, n int) {
	t0 := c.proc.Now()
	c.port.SetTeamCtrs(c.attr)
	c.port.LoadStride(c.proc, base, stride, n)
	c.stalled(t0)
}

// LoadRange touches every line in [base, base+bytes) once with a
// load — the access pattern of a streaming read. It issues one load
// per line (mem.Port.LoadRange); per-element ALU work should be added
// with Compute/Exec by the caller, which keeps workload tuning
// explicit.
func (c *CPU) LoadRange(base uint64, bytes int) {
	t0 := c.proc.Now()
	c.port.SetTeamCtrs(c.attr)
	c.port.LoadRange(c.proc, base, bytes)
	c.stalled(t0)
}

// StoreRange touches every line in [base, base+bytes) once with a
// streaming store: the writes retire through the store buffer
// (mem.Port.StoreStreamRange), so they consume bandwidth without
// stalling the core unless the buffer fills — the behaviour of a real
// write stream.
func (c *CPU) StoreRange(base uint64, bytes int) {
	t0 := c.proc.Now()
	c.port.SetTeamCtrs(c.attr)
	c.port.StoreStreamRange(c.proc, base, bytes)
	c.stalled(t0)
}

// stalled charges the cycles since t0, spent in a memory access, to
// the ledger's Stall.
func (c *CPU) stalled(t0 uint64) {
	if c.led != nil {
		c.led.Stall += c.proc.Now() - t0
	}
}

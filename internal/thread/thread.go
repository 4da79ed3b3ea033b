// Package thread implements the threading runtime of the simulated
// machine: fork-join parallel regions with a runtime-variable team
// size (OpenMP's num_threads clause), FIFO critical-section locks and
// barriers — the "minimal support from the threading library" the
// paper's techniques require.
//
// The runtime also provides the instrumentation FDT leans on: every
// critical section's occupancy is accumulated into a machine counter
// (the moral equivalent of the paper's compiler-inserted cycle-counter
// reads at critical-section entry and exit), so the training phase
// can compute T_CS and T_NoCS without touching workload code.
package thread

import (
	"fmt"
	"slices"

	"fdt/internal/counters"
	"fdt/internal/cpu"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/sim"
)

// Counter names exported by the runtime into the machine counter set.
const (
	// CtrCSCycles accumulates cycles spent inside critical sections
	// (lock held), across all threads.
	CtrCSCycles = "sync.cs_cycles"
	// CtrCSWaitCycles accumulates cycles spent waiting to enter
	// critical sections.
	CtrCSWaitCycles = "sync.cs_wait_cycles"
	// CtrCSEntries counts critical-section executions.
	CtrCSEntries = "sync.cs_entries"
	// CtrBarrierWaitCycles accumulates cycles spent waiting at
	// barriers.
	CtrBarrierWaitCycles = "sync.barrier_wait_cycles"
)

// Ctx is a thread's execution context inside a parallel region (or
// the master's context outside one, where ID=0 and Size=1).
type Ctx struct {
	// ID is the thread's index within its team.
	ID int
	// Size is the team size.
	Size int
	// CPU executes this thread's work.
	CPU *cpu.CPU

	m *machine.Machine
	// team is the thread's tenant: the contexts it may fork onto and
	// the private counter file its synchronization and bus traffic
	// accumulate into. Always set (single-tenant programs run on the
	// machine's default whole-machine team).
	team *machine.Team
	// led is the hardware context's conservation ledger (nil when the
	// invariant harness is disabled): sync waits charge Sync, the
	// master's join park charges Idle.
	led *invariant.Ledger
}

// Machine exposes the machine the thread runs on.
func (c *Ctx) Machine() *machine.Machine { return c.m }

// Team exposes the thread's tenant.
func (c *Ctx) Team() *machine.Team { return c.team }

// TeamSize reports the thread capacity of this thread's team — the
// clamp Fork applies and the "cores" a tenant's controller may choose
// among (the whole machine for a single-tenant program).
func (c *Ctx) TeamSize() int { return c.team.Size() }

// TeamCounter reads a counter from the team's private counter file —
// the per-tenant view a controller samples (e.g. its own threads'
// critical-section cycles, not a co-runner's).
func (c *Ctx) TeamCounter(name string) *counters.Counter {
	return c.team.Ctrs.Counter(name)
}

// Compute advances this thread through cycles of ALU work.
func (c *Ctx) Compute(cycles uint64) { c.CPU.Compute(cycles) }

// Exec retires instrs instructions.
func (c *Ctx) Exec(instrs uint64) { c.CPU.Exec(instrs) }

// Load reads the line containing addr.
func (c *Ctx) Load(addr uint64) { c.CPU.Load(addr) }

// Store writes the line containing addr.
func (c *Ctx) Store(addr uint64) { c.CPU.Store(addr) }

// LoadStride loads n addresses from base on, stride bytes apart.
func (c *Ctx) LoadStride(base, stride uint64, n int) { c.CPU.LoadStride(base, stride, n) }

// LoadRange streams loads over [base, base+bytes).
func (c *Ctx) LoadRange(base uint64, bytes int) { c.CPU.LoadRange(base, bytes) }

// StoreRange streams stores over [base, base+bytes).
func (c *Ctx) StoreRange(base uint64, bytes int) { c.CPU.StoreRange(base, bytes) }

// AtDecisionPoint reports whether the context is at a safe
// re-decision point: on the master thread with no team forked. Only
// here may a controller change the team size — between chunks, every
// worker has joined and the next Fork is free to pick a new n. The
// FDT pipeline's executor asserts this before every chunk.
func (c *Ctx) AtDecisionPoint() bool { return c.ID == 0 && c.Size == 1 }

// FastForward advances the master's clock by d cycles without
// executing work — the sampled-execution runtime's analytic skip
// across a steady-state region. Only legal at a decision point: with
// no team forked, warping the master's clock cannot desynchronize
// in-flight workers. The skipped span counts as active occupancy for
// the power metric (the master context stays occupied throughout) and
// as Idle in the conservation ledger — though in practice the ledger
// never sees a fast-forward, because invariant-checked runs force
// exact mode.
func (c *Ctx) FastForward(d uint64) {
	if !c.AtDecisionPoint() {
		panic("thread: FastForward outside a decision point")
	}
	if d == 0 {
		return
	}
	c.CPU.Proc().Advance(d)
	c.led.AddIdle(d)
}

// Range block-distributes the half-open interval [lo, hi) across the
// team and returns this thread's sub-interval — OpenMP's static
// schedule.
func (c *Ctx) Range(lo, hi int) (myLo, myHi int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	per := n / c.Size
	rem := n % c.Size
	myLo = lo + c.ID*per + min(c.ID, rem)
	myHi = myLo + per
	if c.ID < rem {
		myHi++
	}
	return myLo, myHi
}

// newCtx builds a thread context on its team's slot-th hardware
// context: the CPU sits on that context's core, shares that core's
// memory port (attributing its bus traffic to the team), and — under
// SMT — derates its compute by the core's current context load.
func newCtx(m *machine.Machine, team *machine.Team, id, size, slot int, p *sim.Proc) *Ctx {
	hwCtx := team.Ctx(slot)
	core := m.CoreOf(hwCtx)
	c := cpu.New(core, m.Cfg.IssueWidth, p, m.Mem.Port(core))
	c.SetTeamCtrs(team.MemAttr())
	if m.Cfg.SMTContexts > 1 {
		c.SetContention(func() int { return m.CoreLoad(core) })
	}
	if !m.Cfg.Freq.Trivial() {
		c.SetFreqScale(func() (uint64, uint64) { return m.FreqScale(core) })
	}
	led := m.ContextLedger(hwCtx)
	c.SetLedger(led)
	return &Ctx{ID: id, Size: size, CPU: c, m: m, team: team, led: led}
}

// TeamMain is one tenant's program: a master function to run on the
// team's first context.
type TeamMain struct {
	Team *machine.Team
	Main func(c *Ctx)
}

// RunTeams co-schedules one master thread per team — each on its
// team's first hardware context, spawned in slice order (which fixes
// the deterministic interleaving) — runs the simulation until every
// program completes, and accounts each master's occupancy up to the
// last master's completion. It returns each master's completion cycle,
// in input order. This is the multi-tenant generalization of Run: the
// engine interleaves all teams' processes against the shared memory
// system while each team forks, synchronizes and accounts only within
// itself.
func RunTeams(m *machine.Machine, mains []TeamMain) []uint64 {
	// Occupy from the engine's current time, not 0: on a fresh machine
	// they are the same, and on a checkpoint-restored machine (clock
	// warped forward) the masters' active spans must start at the
	// restore point.
	done := make([]uint64, len(mains))
	for i := range mains {
		tm := mains[i]
		m.OccupyContext(tm.Team.Ctx(0), m.Eng.Now())
		i := i
		m.Eng.Spawn(tm.Team.ProcName("master"), func(p *sim.Proc) {
			tm.Main(newCtx(m, tm.Team, 0, 1, 0, p))
			done[i] = p.Now()
			m.ProgramDone(done[i])
		})
	}
	m.Eng.Run()
	// Co-runners keep the engine alive past a faster program's
	// completion; each master's tail is idle occupancy. The run ends
	// with its last program: an auxiliary process (the sampler) may
	// move the clock past it, and must not lengthen the run it observes.
	end := slices.Max(done)
	for i := range mains {
		ctx0 := mains[i].Team.Ctx(0)
		m.ContextLedger(ctx0).AddIdle(end - done[i])
		m.ReleaseContext(ctx0, end)
	}
	return done
}

// Run starts the program's master thread on hardware context 0 (core
// 0), runs the simulation to completion, and accounts the master's
// power. The master is active for the whole execution, like the
// initial thread of an OpenMP program. The program runs on the
// machine's default whole-machine team. It returns the cycle the
// program completed at.
func Run(m *machine.Machine, main func(c *Ctx)) uint64 {
	return RunTeams(m, []TeamMain{{Team: m.DefaultTeam(), Main: main}})[0]
}

// Fork runs body on a team of n threads — thread i on the team's i-th
// context, which spreads one thread per owned core before any core
// hosts two (SMT) — and returns when every team member has finished
// (the implicit join of a parallel region). The caller becomes thread
// 0. n is clamped to [1, TeamSize]. Nested parallel regions are not
// supported, as in the paper's OpenMP setup: only the master (ID 0 of
// a size-1 context) may fork.
func (c *Ctx) Fork(n int, body func(tc *Ctx)) {
	if !c.AtDecisionPoint() {
		panic("thread: nested Fork is not supported")
	}
	m, t := c.m, c.team
	if n < 1 {
		n = 1
	}
	if n > t.Size() {
		n = t.Size()
	}
	p := c.CPU.Proc()
	if n > 1 {
		c.Compute(m.Cfg.ForkCost)
	}

	join := &joinState{remaining: n - 1, master: p}
	for i := 1; i < n; i++ {
		i := i
		hw := t.Ctx(i)
		m.OccupyContext(hw, p.Now())
		m.Eng.Spawn(t.ProcName(fmt.Sprintf("worker-%d", i)), func(wp *sim.Proc) {
			tc := newCtx(m, t, i, n, i, wp)
			body(tc)
			m.ReleaseContext(hw, wp.Now())
			join.remaining--
			if join.remaining == 0 && join.masterParked {
				wp.Wake(join.master)
			}
		})
	}

	masterCtx := &Ctx{ID: 0, Size: n, CPU: c.CPU, m: m, team: t, led: c.led}
	body(masterCtx)
	if join.remaining > 0 {
		join.masterParked = true
		t0 := p.Now()
		p.Park()
		c.led.AddIdle(p.Now() - t0)
	}
}

type joinState struct {
	remaining    int
	masterParked bool
	master       *sim.Proc
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

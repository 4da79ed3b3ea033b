package sim

import (
	"fmt"
	"testing"
)

// TestStressManyProcsAndResources runs a few hundred processes over
// shared resources with producer/consumer park-wake chains — a
// smoke-scale version of what a 32-core workload simulation does —
// and checks global invariants: the clock is monotone, every process
// finishes, and resource accounting balances.
func TestStressManyProcsAndResources(t *testing.T) {
	e := NewEngine()
	resources := []*Resource{
		new(Resource), new(Resource), new(Resource),
	}
	var wantBusy [3]uint64
	const procs = 300

	// A chain of parked consumers, each woken by its predecessor.
	var chain []*Proc
	for i := 0; i < procs/3; i++ {
		i := i
		p := e.Spawn(fmt.Sprintf("consumer-%d", i), func(p *Proc) {
			p.Park()
			r := resources[i%3]
			r.AcquireAndHold(p, uint64(5+i%7))
			if i+1 < procs/3 {
				p.Wake(chain[i+1])
			}
		})
		chain = append(chain, p)
		wantBusy[i%3] += uint64(5 + i%7)
	}
	// Producers contend on the resources, then the first wakes the chain.
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn(fmt.Sprintf("producer-%d", i), func(p *Proc) {
			p.Advance(uint64(i % 13))
			r := resources[(i*7)%3]
			r.AcquireAndHold(p, uint64(1+i%5))
			if i == 0 {
				p.Wake(chain[0])
			}
		})
		wantBusy[(i*7)%3] += uint64(1 + i%5)
	}

	e.Run()
	if e.Live() != 0 {
		t.Fatalf("%d processes still live", e.Live())
	}
	for i, r := range resources {
		if r.BusyCycles() != wantBusy[i] {
			t.Errorf("resource %d busy = %d, want %d", i, r.BusyCycles(), wantBusy[i])
		}
	}
}

// TestStressDeterministicUnderGoMaxprocs repeats a contended
// simulation and demands bit-identical end times — the determinism
// guarantee cannot depend on host parallelism.
func TestStressDeterministicUnderContention(t *testing.T) {
	run := func() uint64 {
		e := NewEngine()
		spawnContention(e, false)
		e.Run()
		return e.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %d, first at %d", i, got, first)
		}
	}
}

// spawnContention spawns 64 processes that take turns on one shared
// bus resource with staggered think times, as body code or, with
// asOps, each body as one scriptOp.
func spawnContention(e *Engine, asOps bool) {
	r := new(Resource)
	for i := 0; i < 64; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if asOps {
				script := []scriptWait{{d: uint64(i % 9)}}
				for j := 0; j < 5; j++ {
					script = append(script, scriptWait{d: 8, r: r}, scriptWait{d: uint64((i + j) % 11)})
				}
				p.Do(&scriptOp{waits: script})
				return
			}
			p.Advance(uint64(i % 9))
			for j := 0; j < 5; j++ {
				r.AcquireAndHold(p, 8)
				p.Advance(uint64((i + j) % 11))
			}
		})
	}
}

package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// GSearch re-implements the paper's directed-graph search kernel
// (from the OpenMP source code repository): threads repeatedly pop
// nodes from a shared work queue, evaluate them, and mark them
// visited. The queue and the visited set are each guarded by their
// own critical section — the paper notes the kernel has two separate
// critical sections and that the CS fraction varies across iterations
// (Section 4.3: 3.84% on average, SAT chooses 5 threads).
type GSearch struct {
	m *machine.Machine
	p GSearchParams

	adj                  [][]int32 // adjacency lists; shared read-only input
	adjAddr              uint64    // node records in simulated memory
	queueAddr, visitAddr uint64

	queueLock *thread.Lock
	visitLock *thread.Lock

	queue   []int32
	qHead   int
	visited []bool
	// itBudget is the shared per-iteration expansion budget,
	// decremented under the queue lock.
	itBudget   int
	visitCount int
}

// GSearchParams sizes GSearch.
type GSearchParams struct {
	// Nodes is the graph size (paper: 10K; ours 15K of lighter nodes).
	Nodes int
	// Degree is the average out-degree.
	Degree int
	// Batch is the nodes expanded per kernel iteration.
	Batch int
	// EvalInstr is the per-node evaluation work (the "search" —
	// comparing the node's payload against the query).
	EvalInstr uint64
	// EdgeInstr is the per-edge traversal work.
	EdgeInstr uint64
}

// DefaultGSearchParams returns the scaled Table-2 input.
func DefaultGSearchParams() GSearchParams {
	return GSearchParams{
		Nodes:     15000,
		Degree:    4,
		Batch:     64,
		EvalInstr: 800,
		EdgeInstr: 30,
	}
}

// NewGSearch builds a deterministic random digraph and seeds the work
// queue with node 0 plus enough roots that the whole graph is
// reachable (so the amount of work is input-determined, not
// schedule-determined).
func NewGSearch(m *machine.Machine, p GSearchParams) *GSearch {
	mustMachine(m, "gsearch")
	w := &GSearch{m: m, p: p}
	w.adj = readOnlyInput(p, func() [][]int32 {
		r := newRNG(0x65ea7c4)
		adj := make([][]int32, p.Nodes)
		for n := range adj {
			deg := 1 + r.intn(2*p.Degree-1) // avg ~Degree
			edges := make([]int32, deg)
			for e := range edges {
				edges[e] = int32(r.intn(p.Nodes))
			}
			adj[n] = edges
		}
		return adj
	})
	w.adjAddr = m.Alloc(p.Nodes * 64) // one record line per node
	w.queueLock = thread.NewLock(m)
	w.visitLock = thread.NewLock(m)
	w.queueAddr = m.Alloc(4 * p.Nodes)
	w.visitAddr = m.Alloc(p.Nodes)
	w.queue = make([]int32, 0, p.Nodes)
	w.visited = make([]bool, p.Nodes)
	// Seed: every node enters the logical work list exactly once, in
	// discovery order of a serial sweep — the standard trick for a
	// fixed-size parallel search benchmark whose result must not
	// depend on the thread count.
	for n := 0; n < p.Nodes; n++ {
		w.queue = append(w.queue, int32(n))
	}
	return w
}

// Name implements core.Workload.
func (w *GSearch) Name() string { return "gsearch" }

// Kernels implements core.Workload.
func (w *GSearch) Kernels() []core.Kernel { return []core.Kernel{w} }

// Iterations implements core.Kernel: batches of node expansions.
func (w *GSearch) Iterations() int {
	return (w.p.Nodes + w.p.Batch - 1) / w.p.Batch
}

// RunChunk implements core.Kernel: the team collectively expands up
// to Batch nodes per iteration. Each thread grabs its share of the
// batch from the shared queue under the queue lock (CS 1), evaluates
// the nodes in parallel, and publishes its results into the visited
// set under the visited lock (CS 2). Every thread executes both
// critical sections once per iteration, so — as in the paper's
// workloads — the total critical-section time grows with the team
// size while the parallel work per thread shrinks.
func (w *GSearch) RunChunk(master *thread.Ctx, n, lo, hi int) {
	bar := &thread.Barrier{}
	master.Fork(n, func(tc *thread.Ctx) {
		for it := lo; it < hi; it++ {
			if tc.ID == 0 {
				w.itBudget = w.p.Batch
			}
			tc.Barrier(bar)

			// CS 1: claim this thread's chunk of the batch.
			var mine []int32
			tc.Critical(w.queueLock, func() {
				tc.Load(w.queueAddr + uint64(4*w.qHead))
				tc.Exec(400)
				share := (w.p.Batch + tc.Size - 1) / tc.Size
				if share > w.itBudget {
					share = w.itBudget
				}
				if rest := len(w.queue) - w.qHead; share > rest {
					share = rest
				}
				if share > 0 {
					mine = w.queue[w.qHead : w.qHead+share]
					w.qHead += share
					w.itBudget -= share
					tc.Store(w.queueAddr + uint64(4*w.qHead))
				}
			})

			// Parallel part: evaluate the claimed nodes and walk
			// their edges.
			for _, node := range mine {
				tc.Load(w.adjAddr + uint64(node)*64)
				tc.Exec(w.p.EvalInstr)
				for _, e := range w.adj[node] {
					tc.Load(w.adjAddr + uint64(e)*64)
					tc.Exec(w.p.EdgeInstr)
				}
			}

			// CS 2: publish results into the shared visited set.
			tc.Critical(w.visitLock, func() {
				tc.Exec(400 + 8*uint64(len(mine)))
				for _, node := range mine {
					tc.Load(w.visitAddr + uint64(node))
					tc.Store(w.visitAddr + uint64(node))
					if !w.visited[node] {
						w.visited[node] = true
						w.visitCount++
					}
				}
			})
			tc.Barrier(bar)
		}
	})
}

// Verify checks that every node was visited exactly once.
func (w *GSearch) Verify() error {
	if w.visitCount != w.p.Nodes {
		return fmt.Errorf("gsearch: visited %d nodes, want %d", w.visitCount, w.p.Nodes)
	}
	for n, v := range w.visited {
		if !v {
			return fmt.Errorf("gsearch: node %d never visited", n)
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "gsearch",
		Class:   CSLimited,
		Problem: "Search in directed graphs",
		Input:   "15K nodes",
		Factory: func(m *machine.Machine) core.Workload {
			return NewGSearch(m, DefaultGSearchParams())
		},
	})
}

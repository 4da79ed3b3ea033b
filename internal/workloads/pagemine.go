package workloads

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// PageMine is the paper's motivating data-mining kernel (Figs 1/2,
// derived from rsearchk): GetPageHistogram counts the occurrences of
// each ASCII character on a page. The team splits each page; every
// thread gathers a local histogram in parallel, then adds it to the
// global histogram inside a critical section, then waits at a barrier.
//
// Tuning target (DESIGN.md): single-thread critical-section fraction
// around 2-3%, giving P_CS ~ 6-7 as in Section 4.3. Pages stream from
// memory (each page is touched exactly once), so there is moderate
// bus pressure too — but the critical section binds first, exactly as
// in the paper's Fig 2.
type PageMine struct {
	m *machine.Machine
	p PageMineParams

	data      []byte // all pages, deterministic content; shared read-only input
	pagesAddr uint64
	histAddr  uint64
	lock      *thread.Lock

	global [pageMineBins]uint64
}

const (
	pageMineBins      = 128
	pageMineHistBytes = pageMineBins * 4 // "128 integers" (footnote 1)
)

// PageMineParams sizes PageMine.
type PageMineParams struct {
	// Pages is the document length in pages (paper: 1000; scaled 200).
	Pages int
	// PageBytes is the page size (paper default: 5280 = 66x80 chars).
	PageBytes int
	// WorkPerCharInstr is the histogram-gathering work per character.
	WorkPerCharInstr uint64
	// MergePerBinInstr is the critical-section work per histogram bin.
	MergePerBinInstr uint64
}

// DefaultPageMineParams returns the scaled Table-2 input.
func DefaultPageMineParams() PageMineParams {
	return PageMineParams{
		Pages:            200,
		PageBytes:        5280,
		WorkPerCharInstr: 2,
		MergePerBinInstr: 6,
	}
}

// NewPageMine builds the workload on m: it lays out the document and
// the global histogram in simulated memory and fills the document
// with deterministic text.
func NewPageMine(m *machine.Machine, p PageMineParams) *PageMine {
	mustMachine(m, "pagemine")
	w := &PageMine{m: m, p: p}
	w.data = readOnlyInput(p, func() []byte {
		data := make([]byte, p.Pages*p.PageBytes)
		r := newRNG(0x9a6e)
		for i := range data {
			data[i] = byte(r.intn(pageMineBins))
		}
		return data
	})
	w.pagesAddr = m.Alloc(len(w.data))
	w.lock = thread.NewLock(m)
	w.histAddr = m.Alloc(pageMineHistBytes)
	return w
}

// Name implements core.Workload.
func (w *PageMine) Name() string { return "pagemine" }

// Kernels implements core.Workload: PageMine is a single kernel.
func (w *PageMine) Kernels() []core.Kernel { return []core.Kernel{w} }

// Iterations implements core.Kernel: one iteration per page, matching
// the paper's iteratively-called GetPageHistogram.
func (w *PageMine) Iterations() int { return w.p.Pages }

// RunChunk implements core.Kernel: pages [lo, hi) on a team of n.
func (w *PageMine) RunChunk(master *thread.Ctx, n, lo, hi int) {
	bar := &thread.Barrier{}
	master.Fork(n, func(tc *thread.Ctx) {
		var local [pageMineBins]uint64
		for page := lo; page < hi; page++ {
			base := w.pagesAddr + uint64(page*w.p.PageBytes)
			off := page * w.p.PageBytes

			// Parallel part: gather the local histogram over this
			// thread's fraction of the page (Fig 1).
			myLo, myHi := tc.Range(0, w.p.PageBytes)
			if myHi > myLo {
				tc.LoadRange(base+uint64(myLo), myHi-myLo)
				tc.Exec(uint64(myHi-myLo) * w.p.WorkPerCharInstr)
				for i := myLo; i < myHi; i++ {
					local[w.data[off+i]]++
				}
			}

			// Serial part: add the local histogram to the global
			// histogram under the critical section.
			tc.Critical(w.lock, func() {
				tc.LoadRange(w.histAddr, pageMineHistBytes)
				tc.Exec(pageMineBins * w.p.MergePerBinInstr)
				tc.StoreRange(w.histAddr, pageMineHistBytes)
				for b, v := range local {
					w.global[b] += v
					local[b] = 0
				}
			})
			tc.Barrier(bar)
		}
	})
}

// Histogram returns the accumulated global histogram (a copy).
func (w *PageMine) Histogram() []uint64 {
	out := make([]uint64, pageMineBins)
	copy(out, w.global[:])
	return out
}

// Verify recounts the document serially and compares with the global
// histogram the threaded run produced.
func (w *PageMine) Verify() error {
	var want [pageMineBins]uint64
	for _, b := range w.data {
		want[b]++
	}
	for i := range want {
		if want[i] != w.global[i] {
			return fmt.Errorf("pagemine: bin %d = %d, want %d", i, w.global[i], want[i])
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "pagemine",
		Class:   CSLimited,
		Problem: "Data mining kernel",
		Input:   "200 pages x 5280 chars",
		Factory: func(m *machine.Machine) core.Workload {
			return NewPageMine(m, DefaultPageMineParams())
		},
	})
}

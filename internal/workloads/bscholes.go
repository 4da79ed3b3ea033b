package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// BScholes re-implements the CUDA-SDK BlackScholes sample: pricing a
// portfolio of European options with the closed-form Black-Scholes
// formula, repeatedly (the SDK re-prices the portfolio many times).
// Every option is independent, the portfolio stays on chip after the
// first pass, and the transcendental-heavy arithmetic dominates — so
// the kernel is scalable and FDT must keep all 32 cores busy.
type BScholes struct {
	m *machine.Machine
	p BScholesParams

	spot, strike, tte []float64
	call, put         []float64
	dataAddr          uint64
	outAddr           uint64

	// priced marks the batches whose prices call and put already hold.
	// The inputs never change, so every pass computes the same prices:
	// a batch is priced in Go the first time it runs, while every pass
	// still charges its loads, work and stores to the simulated core.
	priced []bool
}

// BScholesParams sizes BScholes.
type BScholesParams struct {
	// Options is the portfolio size (paper: CUDA SDK; scaled 2K).
	Options int
	// Batch is the options priced per kernel iteration; batches are
	// fully independent, so iterations distribute freely across the
	// team (the CUDA SDK's thread blocks).
	Batch int
	// Passes re-prices the portfolio.
	Passes int
	// OptionInstr is the per-option pricing work.
	OptionInstr uint64
	// Rate and Vol are the market parameters.
	Rate, Vol float64
}

// DefaultBScholesParams returns the scaled Table-2 input.
func DefaultBScholesParams() BScholesParams {
	return BScholesParams{Options: 2048, Batch: 128, Passes: 125, OptionInstr: 200, Rate: 0.02, Vol: 0.30}
}

// NewBScholes builds a deterministic portfolio.
func NewBScholes(m *machine.Machine, p BScholesParams) *BScholes {
	mustMachine(m, "bscholes")
	w := &BScholes{m: m, p: p}
	n := p.Options
	w.spot = make([]float64, n)
	w.strike = make([]float64, n)
	w.tte = make([]float64, n)
	w.call = make([]float64, n)
	w.put = make([]float64, n)
	w.priced = make([]bool, w.batchesPerPass())
	r := newRNG(0xb5)
	for i := 0; i < n; i++ {
		w.spot[i] = 5 + 95*r.float64()
		w.strike[i] = 5 + 95*r.float64()
		w.tte[i] = 0.25 + 9.75*r.float64()
	}
	w.dataAddr = m.Alloc(3 * 8 * n)
	w.outAddr = m.Alloc(2 * 8 * n)
	return w
}

// Name implements core.Workload.
func (w *BScholes) Name() string { return "bscholes" }

// Kernels implements core.Workload.
func (w *BScholes) Kernels() []core.Kernel { return []core.Kernel{w} }

// Iterations implements core.Kernel: one iteration per option batch
// per pass — the kernel's fine-grained parallel-loop units.
func (w *BScholes) Iterations() int {
	return w.p.Passes * w.batchesPerPass()
}

func (w *BScholes) batchesPerPass() int {
	return (w.p.Options + w.p.Batch - 1) / w.p.Batch
}

// normCDF is the standard normal CDF via the Abramowitz & Stegun
// 26.2.17 polynomial approximation (|error| < 7.5e-8), the same
// polynomial the CUDA SDK sample uses — implemented from scratch. By
// construction normCDF(-x) == 1 - normCDF(x), so put-call parity
// holds exactly.
func normCDF(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	k := 1 / (1 + 0.2316419*x)
	poly := k * (0.319381530 + k*(-0.356563782+k*(1.781477937+k*(-1.821255978+k*1.330274429))))
	phi := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
	cdf := 1 - phi*poly
	if neg {
		return 1 - cdf
	}
	return cdf
}

// price computes the Black-Scholes call and put for option i.
func (w *BScholes) price(i int) (call, put float64) {
	s, k, t := w.spot[i], w.strike[i], w.tte[i]
	r, v := w.p.Rate, w.p.Vol
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	disc := k * math.Exp(-r*t)
	call = s*normCDF(d1) - disc*normCDF(d2)
	put = disc*normCDF(-d2) - s*normCDF(-d1)
	return call, put
}

// RunChunk implements core.Kernel: batch iterations [lo, hi) are
// block-distributed across the team; each iteration prices one batch
// of options and writes their prices out.
func (w *BScholes) RunChunk(master *thread.Ctx, n, lo, hi int) {
	master.Fork(n, func(tc *thread.Ctx) {
		myLo, myHi := tc.Range(lo, hi)
		for it := myLo; it < myHi; it++ {
			batch := it % w.batchesPerPass()
			oLo := batch * w.p.Batch
			oHi := oLo + w.p.Batch
			if oHi > w.p.Options {
				oHi = w.p.Options
			}
			tc.LoadRange(w.dataAddr+uint64(3*8*oLo), 3*8*(oHi-oLo))
			tc.Exec(uint64(oHi-oLo) * w.p.OptionInstr)
			if !w.priced[batch] {
				for i := oLo; i < oHi; i++ {
					w.call[i], w.put[i] = w.price(i)
				}
				w.priced[batch] = true
			}
			tc.StoreRange(w.outAddr+uint64(2*8*oLo), 2*8*(oHi-oLo))
		}
	})
}

// Verify re-prices serially and checks put-call parity as an
// independent cross-check.
func (w *BScholes) Verify() error {
	for i := 0; i < w.p.Options; i++ {
		call, put := w.price(i)
		if w.call[i] != call || w.put[i] != put {
			return fmt.Errorf("bscholes: option %d = (%v,%v), want (%v,%v)", i, w.call[i], w.put[i], call, put)
		}
		// Put-call parity: C - P = S - K e^{-rT}.
		lhs := w.call[i] - w.put[i]
		rhs := w.spot[i] - w.strike[i]*math.Exp(-w.p.Rate*w.tte[i])
		if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(rhs)) {
			return fmt.Errorf("bscholes: option %d violates put-call parity: %v vs %v", i, lhs, rhs)
		}
	}
	return nil
}

func init() {
	register(Info{
		Name:    "bscholes",
		Class:   Scalable,
		Problem: "Black-Scholes pricing",
		Input:   "2K options x 125 passes",
		Factory: func(m *machine.Machine) core.Workload {
			return NewBScholes(m, DefaultBScholesParams())
		},
	})
}

// Setup implements core.SetupWorkload: the portfolio is generated
// serially before pricing begins, warming the caches.
func (w *BScholes) Setup(c *thread.Ctx) {
	c.StoreRange(w.dataAddr, 3*8*w.p.Options)
	c.StoreRange(w.outAddr, 2*8*w.p.Options)
	c.Exec(uint64(4 * w.p.Options))
}

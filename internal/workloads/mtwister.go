package workloads

import (
	"fmt"
	"math"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/thread"
)

// MTwister re-implements the CUDA-SDK MersenneTwister sample the
// paper uses: two data-parallel kernels run back to back. The first
// generates uniform random numbers with per-block Mersenne-Twister
// generators (compute-bound — the paper reports it scales to 32
// threads); the second applies the Box-Muller transformation to turn
// them into Gaussians (bandwidth-bound — the paper reports it
// saturates at 12 threads). Because the kernels want different team
// sizes, no static thread count is power-optimal — the paper's
// Fig 15 story, where (SAT+BAT) beats even the oracle static policy.
type MTwister struct {
	m *machine.Machine
	p MTwisterParams

	uniform   []uint32
	gauss     []float64
	uniAddr   uint64
	gaussAddr uint64

	gen *mtGenKernel
	bm  *boxMullerKernel
}

// MTwisterParams sizes MTwister.
type MTwisterParams struct {
	// N is the numbers generated (paper: CUDA SDK default; scaled 64K).
	N int
	// BlockLen is the numbers per independent generator block — and
	// per kernel iteration.
	BlockLen int
	// GenInstr is the per-number generation work (twist + temper +
	// the SDK's per-sample post-processing).
	GenInstr uint64
	// BoxMullerInstr is the per-number transform work (log, sqrt,
	// cosine).
	BoxMullerInstr uint64
}

// DefaultMTwisterParams returns the scaled Table-2 input.
func DefaultMTwisterParams() MTwisterParams {
	return MTwisterParams{N: 64 << 10, BlockLen: 256, GenInstr: 260, BoxMullerInstr: 40}
}

// NewMTwister builds the workload.
func NewMTwister(m *machine.Machine, p MTwisterParams) *MTwister {
	mustMachine(m, "mtwister")
	w := &MTwister{m: m, p: p}
	w.uniform = make([]uint32, p.N)
	w.gauss = make([]float64, p.N)
	w.uniAddr = m.Alloc(4 * p.N)
	w.gaussAddr = m.Alloc(8 * p.N)
	w.gen = &mtGenKernel{w: w}
	w.bm = &boxMullerKernel{w: w}
	return w
}

// Name implements core.Workload.
func (w *MTwister) Name() string { return "mtwister" }

// Kernels implements core.Workload: generation, then transformation.
func (w *MTwister) Kernels() []core.Kernel { return []core.Kernel{w.gen, w.bm} }

func (w *MTwister) blocks() int { return (w.p.N + w.p.BlockLen - 1) / w.p.BlockLen }

// --- Mersenne-Twister generator ---------------------------------------

// mt19937 is a from-scratch MT19937 (Matsumoto & Nishimura 1998).
type mt19937 struct {
	state [624]uint32
	idx   int
}

func newMT19937(seed uint32) *mt19937 {
	g := &mt19937{idx: 624}
	g.state[0] = seed
	for i := 1; i < 624; i++ {
		g.state[i] = 1812433253*(g.state[i-1]^(g.state[i-1]>>30)) + uint32(i)
	}
	return g
}

func (g *mt19937) twist() {
	for i := 0; i < 624; i++ {
		y := g.state[i]&0x80000000 | g.state[(i+1)%624]&0x7fffffff
		n := g.state[(i+397)%624] ^ (y >> 1)
		if y&1 == 1 {
			n ^= 0x9908b0df
		}
		g.state[i] = n
	}
	g.idx = 0
}

func (g *mt19937) next() uint32 {
	if g.idx >= 624 {
		g.twist()
	}
	y := g.state[g.idx]
	g.idx++
	y ^= y >> 11
	y ^= y << 7 & 0x9d2c5680
	y ^= y << 15 & 0xefc60000
	y ^= y >> 18
	return y
}

// mtGenKernel is MTwister's first kernel: block b fills
// uniform[b*BlockLen : (b+1)*BlockLen) from its own generator, so the
// output is identical for every team size.
type mtGenKernel struct{ w *MTwister }

func (k *mtGenKernel) Name() string    { return "mtwister/gen" }
func (k *mtGenKernel) Iterations() int { return k.w.blocks() }

// SampleExactOnly implements core.ExactOnlyKernel: the uniform array
// this kernel stores is the Box-Muller kernel's cache-resident input,
// so fast-forwarding generation would hand the transform a cold
// working set the exact run never sees.
func (k *mtGenKernel) SampleExactOnly() bool { return true }

func (k *mtGenKernel) RunChunk(master *thread.Ctx, n, lo, hi int) {
	w := k.w
	master.Fork(n, func(tc *thread.Ctx) {
		myLo, myHi := tc.Range(lo, hi)
		for b := myLo; b < myHi; b++ {
			blkLo := b * w.p.BlockLen
			blkHi := blkLo + w.p.BlockLen
			if blkHi > w.p.N {
				blkHi = w.p.N
			}
			g := newMT19937(uint32(0x1571 + b))
			tc.Exec(624 * 4) // state initialization
			for i := blkLo; i < blkHi; i++ {
				w.uniform[i] = g.next()
			}
			tc.Exec(uint64(blkHi-blkLo) * w.p.GenInstr)
			tc.StoreRange(w.uniAddr+uint64(4*blkLo), 4*(blkHi-blkLo))
		}
	})
}

// --- Box-Muller transform ---------------------------------------------

// boxMullerKernel is MTwister's second kernel: consecutive pairs
// (u1, u2) become one Gaussian (and its pair partner) via
// z = sqrt(-2 ln u1) * cos(2 pi u2).
type boxMullerKernel struct{ w *MTwister }

func (k *boxMullerKernel) Name() string    { return "mtwister/boxmuller" }
func (k *boxMullerKernel) Iterations() int { return k.w.blocks() }

func boxMuller(u1, u2 uint32) (float64, float64) {
	f1 := (float64(u1) + 1) / (float64(1<<32) + 1) // in (0,1]
	f2 := float64(u2) / float64(1<<32)
	r := math.Sqrt(-2 * math.Log(f1))
	return r * math.Cos(2*math.Pi*f2), r * math.Sin(2*math.Pi*f2)
}

func (k *boxMullerKernel) RunChunk(master *thread.Ctx, n, lo, hi int) {
	w := k.w
	master.Fork(n, func(tc *thread.Ctx) {
		myLo, myHi := tc.Range(lo, hi)
		for b := myLo; b < myHi; b++ {
			blkLo := b * w.p.BlockLen
			blkHi := blkLo + w.p.BlockLen
			if blkHi > w.p.N {
				blkHi = w.p.N
			}
			tc.LoadRange(w.uniAddr+uint64(4*blkLo), 4*(blkHi-blkLo))
			tc.Exec(uint64(blkHi-blkLo) * w.p.BoxMullerInstr)
			for i := blkLo; i+1 < blkHi; i += 2 {
				z0, z1 := boxMuller(w.uniform[i], w.uniform[i+1])
				w.gauss[i], w.gauss[i+1] = z0, z1
			}
			tc.StoreRange(w.gaussAddr+uint64(8*blkLo), 8*(blkHi-blkLo))
		}
	})
}

// Verify regenerates both stages serially and compares bit-exactly,
// then sanity-checks the Gaussian moments.
func (w *MTwister) Verify() error {
	for b := 0; b < w.blocks(); b++ {
		blkLo := b * w.p.BlockLen
		blkHi := blkLo + w.p.BlockLen
		if blkHi > w.p.N {
			blkHi = w.p.N
		}
		g := newMT19937(uint32(0x1571 + b))
		for i := blkLo; i < blkHi; i++ {
			if want := g.next(); w.uniform[i] != want {
				return fmt.Errorf("mtwister: uniform[%d] = %d, want %d", i, w.uniform[i], want)
			}
		}
		for i := blkLo; i+1 < blkHi; i += 2 {
			z0, z1 := boxMuller(w.uniform[i], w.uniform[i+1])
			if w.gauss[i] != z0 || w.gauss[i+1] != z1 {
				return fmt.Errorf("mtwister: gauss pair %d mismatch", i)
			}
		}
	}
	var sum, sumSq float64
	for _, z := range w.gauss {
		sum += z
		sumSq += z * z
	}
	n := float64(w.p.N)
	mean, variance := sum/n, sumSq/n
	// Tolerances scale with sample size: the mean of n standard
	// normals has stddev 1/sqrt(n); allow 5 sigma.
	meanTol := math.Max(0.02, 5/math.Sqrt(n))
	varTol := math.Max(0.05, 10/math.Sqrt(n))
	if math.Abs(mean) > meanTol || math.Abs(variance-1) > varTol {
		return fmt.Errorf("mtwister: moments mean=%v var=%v, want ~N(0,1)", mean, variance)
	}
	return nil
}

func init() {
	register(Info{
		Name:    "mtwister",
		Class:   BWLimited,
		Problem: "Mersenne-Twister PRNG",
		Input:   "64K numbers, 2 kernels",
		Factory: func(m *machine.Machine) core.Workload {
			return NewMTwister(m, DefaultMTwisterParams())
		},
	})
}

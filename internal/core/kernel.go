package core

import "fdt/internal/thread"

// Kernel is a parallelized loop kernel — the unit FDT trains on and
// controls (the paper performs its techniques "only on loop kernels
// that have been parallelized by the programmer", Section 4.2).
//
// Iterations defines the kernel's schedulable units: for a kernel
// whose parallelism lives inside each iteration (PageMine's
// page-at-a-time structure) an iteration is one outer-loop pass; for a
// data-parallel loop (ED) an iteration is a block of the loop's index
// space. FDT peels a prefix of iterations for training and executes
// the rest with the chosen team size.
type Kernel interface {
	// Name identifies the kernel in reports ("pagemine", "mtwister/boxmuller").
	Name() string
	// Iterations reports the total number of schedulable units.
	Iterations() int
	// RunChunk executes iterations [lo, hi) using a team of n threads
	// forked from the master context. Implementations must be safe to
	// call repeatedly with adjacent ranges and varying n.
	RunChunk(master *thread.Ctx, n, lo, hi int)
}

// SampleUnitKernel is optionally implemented by kernels whose
// per-iteration cost is periodic rather than homogeneous — e.g. a
// stencil whose FDT iterations are the slabs of a repeating
// fine/coarse phase sequence. SampleUnit returns the period in
// iterations; sampled execution sizes and aligns its detailed windows
// and skips to whole periods, so every window measures the same phase
// mix it extrapolates. Exact execution ignores it.
type SampleUnitKernel interface {
	SampleUnit() int
}

// ExactOnlyKernel is optionally implemented by kernels that must not
// be fast-forwarded even in sampled mode. Two kinds need it:
//
//   - producers whose stores warm the cache working set a later kernel
//     consumes. Skipping their iterations would hand the consumer a
//     cold, never-simulated working set — a microarchitectural state
//     the exact run can never reach — and the consumer's measured
//     windows would inherit that bias even when fully detailed (the
//     classic functional-warming gap of sampled simulation);
//   - kernels whose behaviour changes at fixed iterations mid-kernel.
//     The detector only sees the windows it simulates, so a phase
//     boundary inside a fast-forward goes unobserved and the previous
//     phase's profile is extrapolated across it.
//
// The sampled executor runs such kernels exactly.
type ExactOnlyKernel interface {
	SampleExactOnly() bool
}

// SetupWorkload is implemented by workloads with an initialization
// phase that runs on the master thread before the first kernel — the
// serial array-initialization code every real benchmark has. Besides
// fidelity, setup warms the caches with the program's working set, so
// kernels whose data lives on chip start training from their steady
// state.
type SetupWorkload interface {
	// Setup initializes the workload's simulated memory (serial, on
	// the master context).
	Setup(c *thread.Ctx)
}

// Workload is a complete program: an ordered sequence of kernels.
// Kernels run back to back; FDT retrains for each (the property that
// lets it pick 32 threads for MTwister's generator kernel and 12 for
// its Box-Muller kernel, Section 5.3).
type Workload interface {
	// Name identifies the workload ("pagemine", "ed", ...).
	Name() string
	// Kernels returns the kernels in execution order. The slice is
	// valid for one run on the machine the workload was built for.
	Kernels() []Kernel
}

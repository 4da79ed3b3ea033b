package main

import (
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, whose load moves
// every timing by tens of percent over minutes. Before each pass the
// parent therefore times a fixed calibration kernel, and the
// end-to-end times are reported at reference-host speed: multiplied by
// referenceCalS over the run's median kernel time (rates divided by
// it). The kernel imports nothing from the repository, so no change
// under test can move it; what it absorbs is the host's speed at the
// time of the run.

// referenceCalS is the calibration kernel's wall time on the
// reference host: the 2-vCPU Xeon the benchmark was written on.
const referenceCalS = 0.05

// calRounds sizes one kernel run to about referenceCalS there, and
// calSamples is how many runs one calibration takes the median of.
const (
	calRounds  = 70_000
	calSamples = 3
)

var (
	calOnce sync.Once
	calBuf  []uint64
)

// calibrate times the kernel calSamples times and returns the median
// wall seconds.
func calibrate() float64 {
	calOnce.Do(func() { calBuf = make([]uint64, 1<<20) })
	xs := make([]float64, calSamples)
	for i := range xs {
		t0 := time.Now()
		calKernel(calRounds, calBuf)
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// calKernel mirrors the simulator's two dominant host costs: one
// goroutine handoff over an unbuffered channel per round (the engine's
// baton exchange, which is most of its CPU profile) and a few
// scattered read-modify-writes over 8 MB. Of the kernels tried, this
// one had the least run-to-run noise (5% per run on a quiet host) and
// followed the host's drift best (correlation 0.8 with sim pass times).
func calKernel(rounds int, buf []uint64) {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	x := uint64(88172645463325252)
	n := uint64(len(buf))
	for i := 0; i < rounds; i++ {
		ping <- struct{}{}
		<-pong
		for k := 0; k < 8; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x%n]++
		}
	}
	close(ping)
	<-pong
}

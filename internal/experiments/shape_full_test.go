//go:build fullsweep

package experiments_test

// The full-resolution shape suite: every assertion over the complete
// 1..32 thread sweep, the resolution EXPERIMENTS.md's figures are
// rendered at. Too slow for tier-1 — CI runs it in its own job with
//
//	go test -tags fullsweep -run TestShapeSuiteFullSweep ./internal/experiments/
//
// where its own run cache amortizes the sweeps across assertions exactly
// as the figure generators do.

import (
	"testing"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/experiments/shape"
)

func TestShapeSuiteFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1..32 sweeps")
	}
	o := experiments.DefaultOptions()
	o.Runs = core.NewRuns(0, nil)
	for _, a := range shape.Assertions() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			if err := a.Check(o); err != nil {
				t.Errorf("claim: %s\nviolation: %v", a.Claim, err)
			}
		})
	}
}

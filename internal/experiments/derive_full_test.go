//go:build fullsweep

package experiments

import (
	"testing"

	"fdt/internal/workloads"
)

// TestDerivedRunsMatchSimulationFullSweep is the whole derivation
// identity sweep: the twelve Table 2 workloads at the three bandwidths
// of Fig 13, exact and sampled, every SAT, BAT and SAT+BAT placement
// byte-identical to a direct simulation. Run it with
//
//	go test -tags fullsweep -run TestDerivedRunsMatchSimulationFullSweep ./internal/experiments/
func TestDerivedRunsMatchSimulationFullSweep(t *testing.T) {
	var names []string
	for _, info := range workloads.All() {
		names = append(names, info.Name)
	}
	derived, placed := checkDerivedIdentity(t, names, []float64{0.5, 1, 2})
	t.Logf("%d of %d placements derived", derived, placed)
	if derived == 0 {
		t.Error("no placement was derived: the identity check compared nothing")
	}
}

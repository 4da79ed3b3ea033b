package service

import (
	"encoding/json"
	"testing"

	"fdt/internal/core"
)

// FuzzSpec feeds arbitrary JSON through the daemon's admission path:
// decoding and normalize must never panic, and every spec normalize
// accepts must describe valid runs — its RunSpec and each of its
// policy placements pass RunSpec.Validate — so an admitted job cannot
// fail on its input.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"pagemine","threads":[2,4],"cores":8}`,
		`{"workload":"ed","policies":["sat","bat","sat+bat","adaptive","hillclimb","hybrid"],"mode":"sampled"}`,
		`{"workload":"ed","threads":[1],"power_budget":5,"policies":["adaptive","static:3"]}`,
		`{"workload":"ed","threads":[1],"freq_ladder_mhz":[2000,1000],"bandwidth":0.5}`,
		`{"workload":"ed","threads":[1],"cores":4}`,
		`{"workload":"ed","threads":[1],"cores":128,"policies":["hybrid"],"power_budget":3}`,
		`{"experiment":"fig2","threads":[1,2]}`,
		`{"kind":"sweep","workload":"mg","threads":[0],"mode":"warp"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.normalize() != nil {
			return
		}
		rs, err := s.runSpec()
		if err != nil {
			t.Fatalf("accepted spec %s has no run description: %v", data, err)
		}
		if err := rs.Validate(); err != nil {
			t.Fatalf("accepted spec %s: %v", data, err)
		}
		for _, p := range s.Policies {
			if rs.Control, err = core.ParseController(p); err != nil {
				t.Fatalf("accepted spec %s: %v", data, err)
			}
			if err := rs.Validate(); err != nil {
				t.Fatalf("accepted spec %s: policy %q: %v", data, p, err)
			}
		}
		s.options()
	})
}

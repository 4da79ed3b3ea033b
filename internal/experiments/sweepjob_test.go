package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
)

// TestSweepJobFanOutDeterministic runs one mixed job — sweep points
// and every controller family — serially and on four workers, and
// wants byte-identical results and one progress event per run either
// way. fdt and sat+bat share a run-cache key, so on four workers one
// of them waits on the other's in-flight run. Each leg runs on a fresh
// run cache, and checks that it simulated every distinct run once.
func TestSweepJobFanOutDeterministic(t *testing.T) {
	t.Cleanup(func() { runner.SetWorkers(0) })
	counts := []int{1, 2, 4, 8}
	policies := []string{"sat", "bat", "sat+bat", "fdt", "adaptive"}
	for _, mode := range []struct {
		name string
		mode core.Mode
	}{{"exact", core.ExactMode()}, {"sampled", core.SampledMode()}} {
		var blobs [][]byte
		for _, workers := range []int{1, 4} {
			runner.SetWorkers(workers)
			var (
				mu   sync.Mutex
				seen = map[string]int{}
			)
			o := Options{Cfg: machine.DefaultConfig().WithCores(8), Mode: mode.mode, Runs: core.NewRuns(0, nil)}
			o.Progress = func(ev ProgressEvent) {
				mu.Lock()
				defer mu.Unlock()
				if ev.Threads != 0 {
					seen[fmt.Sprintf("threads %d #%d/%d", ev.Threads, ev.Index, ev.Total)]++
				} else {
					seen[fmt.Sprintf("%s #%d/%d", ev.Policy, ev.Index, ev.Total)]++
				}
			}
			res, err := RunSweepJob(o, "pagemine", counts, policies)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", mode.name, workers, err)
			}
			want := map[string]int{}
			for i, n := range counts {
				want[fmt.Sprintf("threads %d #%d/%d", n, i, len(counts))] = 1
			}
			for i, r := range res.Policies {
				want[fmt.Sprintf("%s #%d/%d", r.Policy, i, len(policies))] = 1
			}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Errorf("%s, %d workers: progress events %v, want each of %v once", mode.name, workers, seen, want)
			}
			keys := map[string]bool{}
			for _, n := range counts {
				keys[o.spec("pagemine", nil, core.Control{Policy: core.Static{N: n}}).Key()] = true
			}
			for _, p := range policies {
				ctl, err := core.ParseController(p)
				if err != nil {
					t.Fatal(err)
				}
				keys[o.spec("pagemine", nil, ctl).Key()] = true
			}
			if got := o.Runs.Computes(); got != uint64(len(keys)) {
				t.Errorf("%s, %d workers: %d runs simulated, want %d (one per distinct key, on a cold cache)", mode.name, workers, got, len(keys))
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, b)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("%s: result on 4 workers differs from the serial result:\n%s\nvs\n%s", mode.name, blobs[1], blobs[0])
		}
	}
}

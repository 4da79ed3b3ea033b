package core

import (
	"testing"

	"fdt/internal/machine"
)

// trainedModels are the policies whose training the run cache replays.
var trainedModels = []Model{SAT{}, BAT{}, Combined{}}

// TestTrainStopReplay records SAT+BAT's training over every synthetic
// shape, then replays each policy's stop rule over that record: it
// must stop where the policy's own live run stopped training.
func TestTrainStopReplay(t *testing.T) {
	p := DefaultTrainingParams()
	for _, sh := range synthShapes {
		rec := new(runRecord)
		ctl := NewController(Combined{})
		ctl.rec = rec
		m := machine.MustNew(machine.DefaultConfig())
		ctl.Run(m, sh.factory()(m))
		if len(rec.kernels) != 1 {
			t.Fatalf("%s: %d kernel records, want 1", sh, len(rec.kernels))
		}
		k := rec.kernels[0]
		for _, pol := range trainedModels {
			m := machine.MustNew(machine.DefaultConfig())
			live := NewController(pol).Run(m, sh.factory()(m)).Kernels[0].TrainIters
			got := 0
			if k.trained {
				tr, stopped := p.trainStop(pol, k.samples, k.span, k.cores)
				if !stopped {
					t.Errorf("%s, %s: replay over SAT+BAT's %d samples did not stop", sh, pol.Name(), len(k.samples))
					continue
				}
				got = tr.Iters
			}
			if got != live {
				t.Errorf("%s, %s: replay stops after %d iterations, the live run trained %d", sh, pol.Name(), got, live)
			}
		}
	}
}

// FuzzTrainStop checks the stop rule over arbitrary series: each
// replay stops within the series or not at all, and only on a prefix
// (replaying the prefix it stopped at stops there too); SAT+BAT stops
// exactly when both SAT and BAT have, at the later of their stops,
// with their flags.
func FuzzTrainStop(f *testing.F) {
	f.Add([]byte{10, 20, 30, 10, 20, 30, 10, 20, 30, 10, 20, 30}, uint16(400), uint8(32))
	f.Add([]byte{0, 0, 0, 255, 0, 0, 255, 0, 0, 255, 0, 0}, uint16(100), uint8(8))
	f.Add([]byte{200, 9, 250, 40, 10, 1, 41, 10, 1, 42, 10, 1, 43, 10, 1}, uint16(2000), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, span uint16, cores uint8) {
		// Three bytes make one sample: its cycles, its critical-section
		// share and its bus-busy share.
		var samples []IterSample
		for i := 0; i+2 < len(data); i += 3 {
			cyc := 100 + uint64(data[i])*50
			samples = append(samples, IterSample{
				Cycles:   cyc,
				CS:       cyc * uint64(data[i+1]) / 255,
				BusBusy:  cyc * uint64(data[i+2]) / 255,
				MemStall: cyc / 2,
			})
		}
		p := DefaultTrainingParams()
		n, c := int(span)+1, int(cores)%64+1
		stops := map[string]TrainResult{}
		for _, pol := range trainedModels {
			tr, stopped := p.trainStop(pol, samples, n, c)
			if !stopped {
				continue
			}
			if tr.Iters > len(samples) {
				t.Fatalf("%s: stop after %d iterations, beyond the %d recorded", pol.Name(), tr.Iters, len(samples))
			}
			again, ok := p.trainStop(pol, samples[:tr.Iters], n, c)
			if !ok || again != tr {
				t.Fatalf("%s: replay over its own %d-iteration prefix gives %+v (stopped %v), want %+v", pol.Name(), tr.Iters, again, ok, tr)
			}
			stops[pol.Name()] = tr
		}
		sat, satOK := stops["SAT"]
		bat, batOK := stops["BAT"]
		comb, combOK := stops["SAT+BAT"]
		if combOK != (satOK && batOK) {
			t.Fatalf("SAT+BAT stopped %v, SAT %v, BAT %v", combOK, satOK, batOK)
		}
		if !combOK {
			return
		}
		if want := max(sat.Iters, bat.Iters); comb.Iters != want {
			t.Errorf("SAT+BAT stops after %d iterations, want max(SAT %d, BAT %d)", comb.Iters, sat.Iters, bat.Iters)
		}
		if comb.SATStable != sat.SATStable || comb.BWExcluded != bat.BWExcluded {
			t.Errorf("SAT+BAT flags (stable %v, excluded %v), SAT's stable %v, BAT's excluded %v",
				comb.SATStable, comb.BWExcluded, sat.SATStable, bat.BWExcluded)
		}
	})
}

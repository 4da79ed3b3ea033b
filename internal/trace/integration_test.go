package trace_test

// Integration tests exercising the tracer against the real simulator:
// run the phaseshift workload under the adaptive controller with a
// tracer attached, export, and check the artifacts. These live in an
// external test package because internal/trace sits below internal/core
// in the import DAG.

import (
	"bytes"
	"encoding/json"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/trace"
	"fdt/internal/workloads"
)

// runPhaseShift runs phaseshift under the adaptive controller on a
// fresh machine with a tracer of the given mask and capacity attached.
func runPhaseShift(p workloads.SyntheticParams, mask trace.Category, capacity int) (*trace.Tracer, core.RunResult) {
	m := machine.MustNew(machine.DefaultConfig())
	tr := trace.New(capacity, mask)
	m.AttachTracer(tr)
	w := workloads.NewSynthetic(m, p)
	ctl := core.NewController(core.Combined{})
	ctl.Adaptive = true
	res := ctl.Run(m, w)
	return tr, res
}

func exportChrome(t *testing.T, tr *trace.Tracer, res core.RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := trace.WriteChrome(&buf, tr, map[string]string{
		"workload": res.Workload,
		"policy":   res.Policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportDeterminism pins the byte-determinism contract: the same
// seed and policy produce byte-identical exported traces across runs.
func TestExportDeterminism(t *testing.T) {
	p := workloads.DefaultSyntheticParams("phaseshift")
	for i := range p.Spans {
		p.Spans[i].Iters = 80
	}
	p.Iters, p.Elems = 240, 512

	tr1, res1 := runPhaseShift(p, trace.CatMem|trace.CatSync|trace.CatCtl, 1<<16)
	tr2, res2 := runPhaseShift(p, trace.CatMem|trace.CatSync|trace.CatCtl, 1<<16)
	if res1.TotalCycles != res2.TotalCycles {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", res1.TotalCycles, res2.TotalCycles)
	}
	if tr1.Emitted() == 0 {
		t.Fatal("no events captured")
	}

	a, b := exportChrome(t, tr1, res1), exportChrome(t, tr2, res2)
	if !bytes.Equal(a, b) {
		t.Fatalf("exports differ across identical runs (len %d vs %d)", len(a), len(b))
	}

	var tl1, tl2 bytes.Buffer
	if err := trace.WriteTimeline(&tl1, tr1, 10000); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTimeline(&tl2, tr2, 10000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tl1.Bytes(), tl2.Bytes()) {
		t.Fatal("timeline exports differ across identical runs")
	}
}

// retrainEvent is the decoded controller-track retrain instant.
type retrainEvent struct {
	Label string
	Iter  int
}

// controllerRetrains parses exported Chrome JSON and returns the
// retrain events on the controller track, in export (time) order.
func controllerRetrains(t *testing.T, data []byte) []retrainEvent {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	ctlTid := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == trace.ControllerTrack {
			ctlTid = ev.Tid
		}
	}
	if ctlTid < 0 {
		t.Fatal("no controller track in export")
	}

	var out []retrainEvent
	for _, ev := range doc.TraceEvents {
		if ev.Tid != ctlTid || ev.Name != "retrain" || ev.Ph != "i" {
			continue
		}
		label, _ := ev.Args["label"].(string)
		iter, ok := ev.Args["iter"].(float64)
		if !ok {
			t.Fatalf("retrain event without iter arg: %v", ev.Args)
		}
		out = append(out, retrainEvent{Label: label, Iter: int(iter)})
	}
	return out
}

// TestPhaseShiftAdaptiveRetrainTrace is the acceptance check: the
// default phaseshift run under the adaptive controller exports a trace
// whose controller track shows exactly two retrains — the CS onset
// near iteration 400 and the bandwidth onset near iteration 800 (each
// detected within the monitor's interval granularity past the
// boundary).
func TestPhaseShiftAdaptiveRetrainTrace(t *testing.T) {
	tr, res := runPhaseShift(workloads.DefaultSyntheticParams("phaseshift"), trace.CatCtl, 1<<12)
	if len(res.Kernels) != 1 || res.Kernels[0].Retrains != 2 {
		t.Fatalf("expected 2 retrains in the run result, got %+v", res.Kernels)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("controller-only trace overflowed: %d dropped", tr.Dropped())
	}

	retrains := controllerRetrains(t, exportChrome(t, tr, res))
	if len(retrains) != 2 {
		t.Fatalf("controller track shows %d retrain events, want 2: %+v", len(retrains), retrains)
	}
	if retrains[0].Label != "cs" {
		t.Errorf("first retrain signal = %q, want \"cs\"", retrains[0].Label)
	}
	if retrains[0].Iter < 380 || retrains[0].Iter > 560 {
		t.Errorf("first retrain at iter %d, want near the A->B boundary (400)", retrains[0].Iter)
	}
	if retrains[1].Label != "bus" {
		t.Errorf("second retrain signal = %q, want \"bus\"", retrains[1].Label)
	}
	if retrains[1].Iter < 780 || retrains[1].Iter > 960 {
		t.Errorf("second retrain at iter %d, want near the B->C boundary (800)", retrains[1].Iter)
	}
}

package main

import (
	"encoding/json"
	"os"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public API it calls (host wall clock, Unix ns). Spans on
// one track nest by time: a daemon request contains its submit, queue
// and exec spans; a RunSweepJob call contains its runs.
type span struct {
	Name  string `json:"name"`
	Track int    `json:"track"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open; times are relative to the first
// span.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file implements the Chrome trace-event JSON exporter. The
// output is the "JSON object format" of the trace-event spec —
// {"traceEvents": [...], "otherData": {...}} — which Perfetto and
// chrome://tracing both load: one process ("fdt-sim"), one named
// thread per track, Complete ("X") events for spans and Instant ("i")
// events for points. Timestamps are simulated cycles written into the
// ts/dur microsecond fields; absolute wall time is meaningless in a
// simulation, so one displayed microsecond reads as one cycle.
//
// The writer is hand-rolled line-per-event JSON rather than
// encoding/json over a struct tree: field order is fixed and map
// iteration never occurs, so the same captured trace always exports
// byte-identically — the property the determinism golden test pins.

// chromePID is the single synthetic process id all tracks live under.
const chromePID = 1

// argNames maps an event name to the semantic names of its numeric
// arguments A0..A2; n is how many are meaningful. Unlisted events
// export no numeric args.
var argNames = map[string]struct {
	names [3]string
	n     int
}{
	"cs":           {[3]string{"thread"}, 1},
	"cs-wait":      {[3]string{"thread"}, 1},
	"barrier-wait": {[3]string{"thread"}, 1},
	"l3-miss":      {[3]string{"bank"}, 1},
	"sample":       {[3]string{"iters", "start_iter"}, 2},
	"decision":     {[3]string{"threads", "p_cs", "p_bw"}, 3},
	"execute":      {[3]string{"threads", "from_iter", "to_iter"}, 3},
	"monitor":      {[3]string{"cs_per_iter", "bus_per_iter", "next_iter"}, 3},
	"retrain":      {[3]string{"iter", "observed_per_iter", "expected_per_iter"}, 3},
}

// WriteChrome exports the tracer's events as Chrome trace-event JSON.
// meta entries are copied into otherData (sorted by key) alongside
// the exporter's own fields: the clock domain, the ring capacity, and
// the emitted/dropped accounting — a truncated trace always says so.
func WriteChrome(w io.Writer, t *Tracer, meta map[string]string) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\n\"otherData\":{")
	fmt.Fprintf(bw, "\"clock\":\"simulated-cycles\"")
	fmt.Fprintf(bw, ",\"categories\":%s", jsonString(t.Mask().String()))
	fmt.Fprintf(bw, ",\"ring_capacity\":\"%d\"", t.Cap())
	fmt.Fprintf(bw, ",\"events_emitted\":\"%d\"", t.Emitted())
	fmt.Fprintf(bw, ",\"events_dropped\":\"%d\"", t.Dropped())
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, ",%s:%s", jsonString(k), jsonString(meta[k]))
	}
	fmt.Fprintf(bw, "},\n\"traceEvents\":[\n")

	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"fdt-sim\"}}", chromePID)
	for id, name := range t.Tracks() {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
			chromePID, id, jsonString(name))
		// sort_index keeps Perfetto's track order equal to
		// registration order instead of alphabetical.
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}",
			chromePID, id, id)
	}

	for _, ev := range sortedEvents(t) {
		bw.WriteString(",\n")
		writeChromeEvent(bw, ev)
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// WriteChromeFile writes WriteChrome's export of t to the file at path.
func WriteChromeFile(path string, t *Tracer, meta map[string]string) error {
	return writeFile(path, func(w io.Writer) error { return WriteChrome(w, t, meta) })
}

// WriteTimelineFile writes WriteTimeline's rendition of t, at the
// default interval, to the file at path.
func WriteTimelineFile(path string, t *Tracer) error {
	return writeFile(path, func(w io.Writer) error { return WriteTimeline(w, t, 0) })
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedEvents returns the captured events ordered by (cycle,
// emission order). Complete events are emitted at span end but
// stamped with their start cycle, so capture order alone is not
// time-ordered; the stable sort restores it while keeping equal-cycle
// events in their deterministic emission order.
func sortedEvents(t *Tracer) []Event {
	evs := t.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs
}

func writeChromeEvent(bw *bufio.Writer, ev Event) {
	switch ev.Kind {
	case Complete:
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{",
			jsonString(ev.Name), jsonString(ev.Cat.String()), ev.Cycle, ev.Dur, chromePID, ev.Track)
	default:
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{",
			jsonString(ev.Name), jsonString(ev.Cat.String()), ev.Cycle, chromePID, ev.Track)
	}
	sep := ""
	if ev.Label != "" {
		fmt.Fprintf(bw, "\"label\":%s", jsonString(ev.Label))
		sep = ","
	}
	if an, ok := argNames[ev.Name]; ok {
		for i, v := range [3]uint64{ev.A0, ev.A1, ev.A2} {
			if i >= an.n {
				break
			}
			fmt.Fprintf(bw, "%s%s:%d", sep, jsonString(an.names[i]), v)
			sep = ","
		}
	}
	bw.WriteString("}}")
}

// jsonString renders s as a JSON string literal. encoding/json's
// string encoding is deterministic, so golden outputs stay stable.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the exporter total anyway.
		return "\"\""
	}
	return string(b)
}

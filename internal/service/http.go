package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs            submit a Spec; 202 + job view, 400 bad
//	                         spec, 429 queue full, 503 draining
//	GET  /v1/jobs/{id}       poll a job (result included when done)
//	GET  /v1/jobs/{id}/stream  SSE progress stream; one event per
//	                         lifecycle step and sweep point, ends
//	                         after "done"/"error"
//	                         Both job endpoints answer 404 for an ID
//	                         never issued and 410 for a finished job
//	                         dropped from the registry.
//	GET  /v1/stats           queue, cache, and store counters
//	GET  /v1/healthz         liveness ("ok", or 503 while draining)
//
// All responses are JSON except the SSE stream (text/event-stream).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.Snapshot(false))
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueClosed):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// jobOrError finds the request's job, or answers 404 (never issued)
// or 410 (dropped from the registry) and returns nil.
func (s *Service) jobOrError(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, gone := s.lookup(id)
	switch {
	case j != nil:
	case gone:
		writeError(w, http.StatusGone, fmt.Errorf("job %q finished and was dropped; resubmit its spec", id))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return j
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobOrError(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Snapshot(true))
	}
}

// handleStream serves a job's lifecycle as server-sent events. The
// stream reads the job's event log from the start (so a late
// subscriber still sees every point), follows it live, and terminates
// cleanly after the terminal "done"/"error" event — the client's EOF
// is its completion signal. A slow client loses nothing; it only reads
// the log later. The result payload itself is fetched via
// GET /v1/jobs/{id}; keeping it off the stream keeps events small.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobOrError(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	enc := json.NewEncoder(w)
	for next := 0; ; {
		evs, final, wait := j.tail(next)
		for _, ev := range evs {
			io.WriteString(w, "event: ")
			io.WriteString(w, ev.Type)
			io.WriteString(w, "\ndata: ")
			if err := enc.Encode(ev); err != nil { // ends the line
				return
			}
			io.WriteString(w, "\n")
		}
		fl.Flush()
		next += len(evs)
		if final {
			return // terminal event delivered; end the stream
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

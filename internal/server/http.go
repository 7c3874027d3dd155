package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the engine's HTTP API:
//
//	POST   /jobs             submit a JobConfig, returns the job status (202)
//	GET    /jobs             list every job
//	GET    /jobs/{id}        one job's status + partial verdicts
//	GET    /jobs/{id}/stream SSE: snapshot, then round/state events
//	DELETE /jobs/{id}        cancel via the job's context (202)
//
// Trust model: the API is unauthenticated and the tenant field of a
// submission is client-supplied — tenants are a budget-accounting
// boundary, not a security boundary. Any client that can reach the
// listener can submit against any tenant's budget and list, read,
// stream or cancel any job. Serve mode is built for a single
// operator on a trusted network — bind a loopback or otherwise
// firewalled address; exposing it to mutually untrusting tenants
// requires an authenticating front proxy that verifies the tenant
// server-side and scopes /jobs/{id} access to the caller's own jobs.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", e.handleSubmit)
	mux.HandleFunc("GET /jobs", e.handleList)
	mux.HandleFunc("GET /jobs/{id}", e.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", e.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", e.handleCancel)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSubmitBytes caps a POST /jobs body. A JobConfig is a few hundred
// bytes, so a body this large is broken or hostile input; it is
// refused with 413 before the decoder buffers it.
const maxSubmitBytes = 1 << 20

// writeError maps engine errors to HTTP status codes. Only
// recognized client faults get 4xx; anything else (e.g. a meta
// persistence failure inside Submit) is a 500.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalidConfig):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrTenantBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg JobConfig
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		writeError(w, fmt.Errorf("%w: decode: %w", ErrInvalidConfig, err))
		return
	}
	id, err := e.Submit(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	status, err := e.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

func (e *Engine) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.List())
}

func (e *Engine) handleStatus(w http.ResponseWriter, r *http.Request) {
	status, err := e.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (e *Engine) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := e.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	status, err := e.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

// handleStream serves Server-Sent Events: one "snapshot" event with
// the current status, then "round" and "state" events as the job
// progresses, ending when the job terminates (or the client goes
// away). Round events are advisory and may be dropped under
// backpressure; the snapshot and the terminal state event are not.
func (e *Engine) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "server: streaming unsupported"})
		return
	}
	sub, unsub, err := e.Subscribe(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer unsub()
	// Subscribe before the snapshot so no transition between the two
	// is lost; the stream may then deliver a transition twice (once in
	// the snapshot, once as an event), which consumers tolerate.
	status, err := e.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent(w, Event{Type: "snapshot", Status: &status})
	flusher.Flush()
	for {
		select {
		case ev, open := <-sub:
			if !open {
				return
			}
			writeEvent(w, ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent encodes one SSE frame.
func writeEvent(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

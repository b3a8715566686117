package service

// HTTP JSON API over a Manager. cmd/histwalkd serves this handler;
// tests drive it through net/http/httptest. Endpoints:
//
//	POST   /v1/jobs             submit a session.SpecJSON     → 202 JobStatus
//	GET    /v1/jobs             list jobs                     → 200 [JobStatus]
//	GET    /v1/jobs/{id}        status + result               → 200 JobStatus
//	GET    /v1/jobs/{id}/events per-chain progress stream     → 200 SSE
//	DELETE /v1/jobs/{id}        cancel                        → 200 JobStatus
//	GET    /metrics             process registry              → 200 Prometheus text
//	GET    /healthz             liveness + build info         → 200 Health
//
// The event stream is Server-Sent Events: each Event goes out as one
// SSE message whose id is the event's per-job sequence number and whose
// event field is the Event.Type; a reconnecting client resumes from
// Last-Event-ID, replaying nothing it has seen. The stream ends after
// the job's terminal event.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"

	"histwalk/internal/obs"
	"histwalk/internal/session"
)

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSpecBytes caps a POST /v1/jobs request body. A spec is a few
// hundred bytes; the cap stops a client from making the daemon buffer
// an unbounded body.
const maxSpecBytes = 1 << 20

// clientError marks an error the request itself caused: an undecodable
// body, or a spec that does not resolve. Its message is the wrapped
// error's, unchanged.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// statusFor maps manager and request errors to HTTP statuses. An error
// it does not recognise is the server's fault (a job-store write
// failure, say), never a bad request.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, new(clientError)):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrJobTerminal):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), apiError{Error: err.Error()})
}

// NewHandler returns the HTTP API over m.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var wire session.SpecJSON
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			writeError(w, clientError{fmt.Errorf("decoding spec: %w", err)})
			return
		}
		st, err := m.Submit(wire)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := m.Get(id); err != nil {
			writeError(w, err)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
			return
		}
		after := 0
		if last := r.Header.Get("Last-Event-ID"); last != "" {
			if n, err := strconv.Atoi(last); err == nil && n > 0 {
				after = n
			}
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			evs, terminal, err := m.WaitEvents(r.Context(), id, after)
			if err != nil {
				return // client went away (or the job was evicted)
			}
			for _, ev := range evs {
				b, err := json.Marshal(ev)
				if err != nil {
					return
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
				after = ev.Seq
			}
			fl.Flush()
			if terminal && len(evs) == 0 {
				return // log fully replayed past the terminal event
			}
		}
	})

	mux.Handle("GET /metrics", obs.Default.Handler())

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, health())
	})

	return mux
}

// Health is the /healthz payload: liveness plus enough build identity
// to tell which binary an operator is talking to.
type Health struct {
	// Status is always "ok" when the handler answers at all.
	Status string `json:"status"`
	// GoVersion is the toolchain the binary was built with.
	GoVersion string `json:"go_version"`
	// Module and Version identify the main module (Version is
	// "(devel)" for non-tagged builds).
	Module  string `json:"module,omitempty"`
	Version string `json:"version,omitempty"`
	// Revision/RevisionTime/Modified carry the VCS stamp when the
	// binary was built inside a checkout (debug.ReadBuildInfo's
	// vcs.* settings; absent under plain `go test`).
	Revision     string `json:"vcs_revision,omitempty"`
	RevisionTime string `json:"vcs_time,omitempty"`
	Modified     bool   `json:"vcs_modified,omitempty"`
}

// health assembles the build/version payload from the binary's
// embedded build info.
func health() Health {
	h := Health{Status: "ok", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return h
	}
	h.Module = bi.Main.Path
	h.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			h.Revision = s.Value
		case "vcs.time":
			h.RevisionTime = s.Value
		case "vcs.modified":
			h.Modified = s.Value == "true"
		}
	}
	return h
}

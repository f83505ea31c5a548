package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Endpoints is a per-endpoint request table: for each named endpoint, the
// requests served, the errors among them (status ≥ 400) and a latency
// histogram. It is safe for concurrent use: /metrics reads while request
// goroutines write.
type Endpoints struct {
	names []string
	stats []endpointStats
}

type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	latency  Histogram
}

// NewEndpoints returns a table over names; an endpoint's id is its index in
// names.
func NewEndpoints(names ...string) *Endpoints {
	return &Endpoints{names: names, stats: make([]endpointStats, len(names))}
}

// observe records one request to endpoint ep.
func (t *Endpoints) observe(ep int, d time.Duration, status int) {
	s := &t.stats[ep]
	s.requests.Add(1)
	if status >= 400 {
		s.errors.Add(1)
	}
	s.latency.Observe(d)
}

// EndpointJSON is one endpoint's block in a /metrics document.
type EndpointJSON struct {
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"`
	Latency  HistogramJSON `json:"latency"`
}

// Export returns the block of every endpoint that has served a request,
// keyed by endpoint name.
func (t *Endpoints) Export() map[string]EndpointJSON {
	out := map[string]EndpointJSON{}
	for ep := range t.stats {
		s := &t.stats[ep]
		if s.requests.Load() == 0 {
			continue
		}
		out[t.names[ep]] = EndpointJSON{
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
			Latency:  s.latency.Export(),
		}
	}
	return out
}

// Instrument wraps next as endpoint ep: a panic in next becomes a 500 (when
// nothing was written yet) after onPanic has seen it, and every request's
// final status and latency are recorded in t. The panic never takes the
// process down.
func (t *Endpoints) Instrument(ep int, onPanic func(r *http.Request, rec any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				onPanic(r, rec)
				if !sw.wrote {
					WriteError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			t.observe(ep, time.Since(start), sw.status)
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter captures the response status for the table and whether
// anything was written yet (so a recovered panic knows whether a 500 can
// still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// WriteJSON sends v as an indented JSON document with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write is the client's disconnect
}

// WriteError sends {"error": message} with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/ruleframe"
)

// RuleJSON is one served rule as /rules and /score documents carry it
// (field names match the report JSON format so downstream tooling parses
// both). The handlers do not build it per request: BuildSnapshot renders
// every rule through it once (render.go), and Go clients and tests decode
// replies into it.
type RuleJSON struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	RuleInterest    float64  `json:"ruleInterest"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
}

// scoreRequest is the /score request body.
type scoreRequest struct {
	Basket []string `json:"basket"`
	MinRI  *float64 `json:"minRI,omitempty"` // per-request threshold; nil = serve all
	Limit  int      `json:"limit,omitempty"`
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	Status     string       `json:"status"`
	Node       string       `json:"node,omitempty"` // cluster node identity (WithNodeID)
	Snapshot   SnapshotInfo `json:"snapshot"`
	AgeSeconds float64      `json:"snapshotAgeSeconds"`
	// IngestRole is the node's write-path role (primary | standby | fenced,
	// empty on non-HA daemons); ReplLagSegments is a standby's sealed-segment
	// lag behind its primary.
	IngestRole      string `json:"ingestRole,omitempty"`
	ReplLagSegments int    `json:"replLagSegments,omitempty"`
}

// reloadResponse is the /reload payload.
type reloadResponse struct {
	Status string `json:"status"`          // "reloading", "already-reloading" or "ok"
	Error  string `json:"error,omitempty"` // set on synchronous (?wait=1) failure
}

// Handler returns the daemon's HTTP handler:
//
//	GET  /rules?item=NAME[&minri=F][&limit=N]   rules on NAME or its ancestors
//	POST /score   {"basket": [...], "minRI": F} rules the basket triggers
//	GET  /healthz                               liveness + snapshot info
//	GET  /metrics                               counters, latency, reload state
//	POST /reload[?wait=1]                       rebuild + swap the snapshot
//	POST /ingest  {"baskets": [[...], ...]}     append transactions (WithIngest)
//
// Every endpoint serves from one Snapshot pointer loaded at request start,
// so responses are internally consistent even while a reload swaps.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/rules", s.instrument(epRules, http.HandlerFunc(s.handleRules)))
	mux.Handle("/score", s.instrument(epScore, http.HandlerFunc(s.handleScore)))
	mux.Handle("/healthz", s.instrument(epHealthz, http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/metrics", s.instrument(epMetrics, http.HandlerFunc(s.handleMetrics)))
	mux.Handle("/reload", s.instrument(epReload, http.HandlerFunc(s.handleReload)))
	mux.Handle("/ingest", s.instrument(epIngest, http.HandlerFunc(s.handleIngest)))
	for path, h := range s.aux {
		mux.Handle(path, s.instrument(epOther, h))
	}
	mux.Handle("/", s.instrument(epOther, http.NotFoundHandler()))
	return mux
}

// statusWriter captures the response status for metrics and whether
// anything was written yet (so the recovery middleware knows whether a 500
// can still be sent).
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

// admissionClass maps endpoints to governance classes: /score, /reload and
// /ingest are the expensive work degraded mode sheds first (a shed ingest is
// safe: nothing was appended, the client retries); /healthz and /metrics are
// exempt so operators can always see what an overloaded daemon is doing.
func admissionClass(ep int) (class govern.Class, exempt bool) {
	switch ep {
	case epScore, epReload, epIngest:
		return govern.Expensive, false
	case epHealthz, epMetrics:
		return 0, true
	default:
		return govern.Cheap, false
	}
}

// writeShed turns an admission rejection into the contract every client can
// rely on under overload: 503 with a Retry-After hint, never a hang and
// never a connection drop.
func writeShed(w http.ResponseWriter, shed *govern.ShedError) {
	secs := int(math.Ceil(shed.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, "overloaded: request shed (%s)", shed.Reason)
}

// instrument wraps every handler with the serving-lifecycle armor: metrics,
// admission control, the POST body bound, the optional per-request deadline,
// the serve.handler failpoint, and panic recovery. A panicking handler
// produces a 500 (when nothing was written yet), bumps the panics counter,
// and never takes the process down; a shed request produces a 503 with
// Retry-After.
func (s *Server) instrument(ep int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if s.nodeID != "" {
			sw.Header().Set("X-Negmine-Node", s.nodeID)
		}
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.recordPanic()
				s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			s.metrics.observe(ep, time.Since(start), sw.status)
		}()
		if r.Method == http.MethodPost {
			if limit := s.bodyLimit(); limit > 0 {
				r.Body = http.MaxBytesReader(sw, r.Body, limit)
			}
		}
		if s.gov != nil {
			if class, exempt := admissionClass(ep); !exempt {
				release, err := s.gov.Acquire(r.Context(), endpointNames[ep], class)
				if err != nil {
					var shed *govern.ShedError
					if errors.As(err, &shed) {
						s.metrics.recordShed()
						writeShed(sw, shed)
						return
					}
					writeError(sw, http.StatusServiceUnavailable, "admission: %v", err)
					return
				}
				defer release()
			}
		}
		if err := fault.Hit(PointHandler); err != nil {
			writeError(sw, http.StatusInternalServerError, "%v", err)
			return
		}
		next.ServeHTTP(sw, r)
	})
}

// bodyLimit resolves the configured POST body bound (see WithMaxBodyBytes).
func (s *Server) bodyLimit() int64 {
	switch {
	case s.maxBody > 0:
		return s.maxBody
	case s.maxBody < 0:
		return 0
	default:
		return DefaultMaxBodyBytes
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET /rules?item=NAME")
		return
	}
	q := r.URL.Query()
	item := q.Get("item")
	if item == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter: item")
		return
	}
	minRI := 0.0
	if v := q.Get("minri"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad minri %q: %v", v, err)
			return
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			writeError(w, http.StatusBadRequest, "bad minri %q: not a finite number", v)
			return
		}
		minRI = f
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	snap := s.Snapshot()
	sc := renderPool.Get().(*renderScratch)
	defer putRenderScratch(sc)
	ids, err := snap.QueryItemCtx(r.Context(), sc.ids[:0], item, minRI, limit)
	sc.ids = ids[:0]
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	sc.expanded = snap.Expand(sc.expanded[:0], item)
	if sc.prefix, err = ruleframe.AppendRulesPrefix(sc.prefix[:0], item, sc.expanded, minRI); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeReply(w, r, snap, sc, ids, false)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, `use POST /score with {"basket": [...]}`)
		return
	}
	// The body is already bounded by instrument (http.MaxBytesReader).
	var req scoreRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Basket) == 0 {
		writeError(w, http.StatusBadRequest, "basket must contain at least one item")
		return
	}
	minRI := 0.0
	if req.MinRI != nil {
		minRI = *req.MinRI
	}
	snap := s.Snapshot()
	sc := renderPool.Get().(*renderScratch)
	defer putRenderScratch(sc)
	ids, err := snap.ScoreCtx(r.Context(), sc.ids[:0], req.Basket, minRI, req.Limit)
	sc.ids = ids[:0]
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "scoring aborted: %v", err)
		return
	}
	sc.basketIDs = sc.basketIDs[:0]
	for _, name := range req.Basket {
		id, ok := snap.itemID[name]
		if !ok {
			id = -1
		}
		sc.basketIDs = append(sc.basketIDs, id)
	}
	if sc.prefix, err = ruleframe.AppendScorePrefix(sc.prefix[:0], req.Basket, minRI); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeReply(w, r, snap, sc, ids, true)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	doc := healthResponse{
		Status:     "ok",
		Node:       s.nodeID,
		Snapshot:   snap.Info(),
		AgeSeconds: snap.Age().Seconds(),
	}
	if s.ingest != nil {
		st := s.ingest.Stats()
		doc.IngestRole = st.Role
		doc.ReplLagSegments = st.ReplLagSegments
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteJSON(w, s.Snapshot())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST /reload")
		return
	}
	// /reload takes no body, but clients send one anyway; drain it through
	// the bound installed by instrument so an oversized payload gets a clean
	// 413 instead of an unbounded read.
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		if err := s.Reload(r.Context()); err != nil {
			writeJSON(w, http.StatusInternalServerError, reloadResponse{Status: "failed", Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, reloadResponse{Status: "ok"})
		return
	}
	// The background reload outlives this request; don't tie it to the
	// request context or the swap would be cancelled as the 202 returns.
	if s.TriggerReload(context.Background()) {
		writeJSON(w, http.StatusAccepted, reloadResponse{Status: "reloading"})
	} else {
		writeJSON(w, http.StatusAccepted, reloadResponse{Status: "already-reloading"})
	}
}

package serve

import (
	"context"
	"io"
	"net/http"
	"strconv"

	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/metrics"
	"negmine/internal/ruleframe"
)

// RuleJSON is one served rule as /rules and /score documents carry it
// (field names match the report JSON format so downstream tooling parses
// both). Nothing encodes it: BuildSnapshot renders every rule's bytes once
// with ruleframe.AppendRule (render.go), and Go clients and tests decode
// replies into it.
type RuleJSON struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	RuleInterest    float64  `json:"ruleInterest"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
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
//	POST /score   {"basket": [...], "minRI": F, "limit": N}
//	                                            rules the basket triggers
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

// writeShed turns an admission rejection into the contract every client can
// rely on under overload: 503 with a Retry-After hint, never a hang and
// never a connection drop.
func writeShed(w http.ResponseWriter, shed *govern.ShedError) {
	w.Header().Set("Retry-After", strconv.Itoa(int(govern.RetryAfter.Seconds())))
	metrics.WriteError(w, http.StatusServiceUnavailable, "overloaded: request shed (%s)", shed.Reason)
}

// instrument wraps every handler in the shared request spine (panic
// recovery and the endpoint table, metrics.Endpoints.Instrument) and adds
// the daemon's own armor inside it: the node header, the optional
// per-request deadline, the POST body bound, admission control and the
// serve.handler failpoint. A recovered panic also bumps the panics counter;
// a shed request produces a 503 with Retry-After.
func (s *Server) instrument(ep int, next http.Handler) http.Handler {
	return s.metrics.endpoints.Instrument(ep, s.recordPanic, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.nodeID != "" {
			w.Header().Set("X-Negmine-Node", s.nodeID)
		}
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if r.Method == http.MethodPost {
			if limit := s.bodyLimit(); limit > 0 {
				r.Body = http.MaxBytesReader(w, r.Body, limit)
			}
		}
		// /healthz and /metrics bypass admission so operators can always
		// see what an overloaded daemon is doing.
		if s.gov != nil && ep != epHealthz && ep != epMetrics {
			release, shed := s.gov.Acquire(r.Context())
			if shed != nil {
				writeShed(w, shed)
				return
			}
			defer release()
		}
		if err := fault.Hit(PointHandler); err != nil {
			metrics.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		next.ServeHTTP(w, r)
	}))
}

// recordPanic is the spine's panic hook: count the panic and log it.
func (s *Server) recordPanic(r *http.Request, rec any) {
	s.metrics.recordPanic()
	s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
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

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	q, err := ParseRulesQuery(r)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	snap := s.Snapshot()
	sc := renderPool.Get().(*renderScratch)
	defer putRenderScratch(sc)
	ids, err := snap.QueryItemCtx(r.Context(), sc.ids[:0], q.Item, q.MinRI, q.Limit)
	sc.ids = ids[:0]
	if err != nil {
		metrics.WriteError(w, http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	sc.expanded = snap.Expand(sc.expanded[:0], q.Item)
	if sc.prefix, err = ruleframe.AppendRulesPrefix(sc.prefix[:0], q.Item, sc.expanded, q.MinRI); err != nil {
		metrics.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeReply(w, r, snap, sc, ids, false)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	// The body is already bounded by instrument (http.MaxBytesReader).
	req, _, err := DecodeScore(r)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	snap := s.Snapshot()
	sc := renderPool.Get().(*renderScratch)
	defer putRenderScratch(sc)
	ids, err := snap.ScoreCtx(r.Context(), sc.ids[:0], req.Basket, req.MinRI, req.Limit)
	sc.ids = ids[:0]
	if err != nil {
		metrics.WriteError(w, http.StatusServiceUnavailable, "scoring aborted: %v", err)
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
	if sc.prefix, err = ruleframe.AppendScorePrefix(sc.prefix[:0], req.Basket, req.MinRI); err != nil {
		metrics.WriteError(w, http.StatusInternalServerError, "%v", err)
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
	metrics.WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteJSON(w, s.Snapshot())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		metrics.WriteError(w, http.StatusMethodNotAllowed, "use POST /reload")
		return
	}
	// /reload takes no body, but clients send one anyway; drain it through
	// the bound installed by instrument so an oversized payload gets a clean
	// 413 instead of an unbounded read.
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		WriteRequestError(w, bodyError(err))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		if err := s.Reload(r.Context()); err != nil {
			metrics.WriteJSON(w, http.StatusInternalServerError, reloadResponse{Status: "failed", Error: err.Error()})
			return
		}
		metrics.WriteJSON(w, http.StatusOK, reloadResponse{Status: "ok"})
		return
	}
	// The background reload outlives this request; don't tie it to the
	// request context or the swap would be cancelled as the 202 returns.
	if s.TriggerReload(context.Background()) {
		metrics.WriteJSON(w, http.StatusAccepted, reloadResponse{Status: "reloading"})
	} else {
		metrics.WriteJSON(w, http.StatusAccepted, reloadResponse{Status: "already-reloading"})
	}
}

package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"negmine/internal/fault"
	"negmine/internal/metrics"
	"negmine/internal/ruleframe"
	"negmine/internal/serve"
)

// errNoReplica marks a shard fan-out that found no routable replica: the
// shard is omitted from the response (partial), never turned into a 5xx.
var errNoReplica = errors.New("cluster: no routable replica")

// maxShardBody bounds one proxied shard response; presizeShardBody is how
// much of it is allocated on the strength of a Content-Length alone.
const (
	maxShardBody     = 64 << 20
	presizeShardBody = 1 << 20
)

// maxAttempts bounds attempts (first try + retries) per shard per request.
const maxAttempts = 16

// RouterConfig tunes the router. Shards is required; every other field's
// zero value falls back to the default documented on it.
type RouterConfig struct {
	// Shards is the cluster width.
	Shards int
	// ShardTimeout bounds a routed request's shard traffic: every
	// shard's first attempt and the retries together, under one deadline
	// (default 2s).
	ShardTimeout time.Duration
	// RetryBudget is the retry allowance as a fraction of request volume
	// (default 0.1 = one retry per ten requests, burst 3). Negative
	// disables retries entirely.
	RetryBudget float64
	// RetryBurst is the retry token cap (default 3).
	RetryBurst float64
	// Pool tunes the health-checked replica pool; Pool.Shards defaults to
	// Shards.
	Pool PoolConfig
	// Logf receives router logs (default: discard).
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.1
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 3
	}
	if c.Pool.Shards == 0 {
		c.Pool.Shards = c.Shards
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Pool.Logf == nil {
		c.Pool.Logf = c.Logf
	}
	return c
}

// retryBudget is a token bucket bounding failure-triggered retries to a
// fraction of request volume, so a dying shard cannot double the fleet's
// load (every request earns ratio tokens, every retry spends one).
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

func (b *retryBudget) earn() {
	if b.ratio <= 0 {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

func (b *retryBudget) take() bool {
	if b.ratio <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Router fans /score and /rules out across a health-checked shard pool and
// merges the ranked results. See the package comment for the failure model.
type Router struct {
	cfg     RouterConfig
	pool    *Pool
	conns   *connPool
	budget  *retryBudget
	metrics *routerMetrics
}

// NewRouter builds a router for a cluster of cfg.Shards shards.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: router needs a positive shard count, got %d", cfg.Shards)
	}
	return &Router{
		cfg:   cfg,
		pool:  NewPool(cfg.Pool),
		conns: newConnPool(),
		// The bucket starts full so a failure in a quiet period can still
		// retry; sustained failure drains it down to the earn ratio.
		budget:  &retryBudget{ratio: cfg.RetryBudget, burst: cfg.RetryBurst, tokens: cfg.RetryBurst},
		metrics: newRouterMetrics(),
	}, nil
}

// Pool exposes the router's replica pool (heartbeat intake, status, tests).
func (rt *Router) Pool() *Pool { return rt.pool }

// Run drives the pool's sweep/probe loop, and closes shard connections idle
// past idleConnTimeout, until ctx is cancelled.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.pool.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			rt.pool.ProbeOnce(ctx)
			rt.conns.sweep(now)
		}
	}
}

// Handler returns the router's HTTP handler:
//
//	POST /score              fan out to every shard, merge ranked matches
//	GET  /rules?item=NAME    fan out to every shard, merge ranked rules
//	POST /ingest             forward the write to the current ingest primary
//	GET  /healthz            router liveness + routable-shard summary
//	GET  /metrics            fan-out counters, latency, full cluster status
//	POST /cluster/heartbeat  node registration + liveness (negmined -cluster-join)
//	GET  /cluster/status     the pool's full shard/replica table
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/score", rt.instrument(repScore, http.HandlerFunc(rt.handleScore)))
	mux.Handle("/rules", rt.instrument(repRules, http.HandlerFunc(rt.handleRules)))
	mux.Handle("/ingest", rt.instrument(repIngest, http.HandlerFunc(rt.handleIngest)))
	mux.Handle("/healthz", rt.instrument(repOther, http.HandlerFunc(rt.handleHealthz)))
	mux.Handle("/metrics", rt.instrument(repOther, http.HandlerFunc(rt.handleMetrics)))
	mux.Handle("/cluster/heartbeat", rt.instrument(repHeartbeat, http.HandlerFunc(rt.handleHeartbeat)))
	mux.Handle("/cluster/status", rt.instrument(repStatus, http.HandlerFunc(rt.handleStatus)))
	mux.Handle("/", rt.instrument(repOther, http.NotFoundHandler()))
	return mux
}

// instrument wraps a handler in the shared request spine: a panicking
// handler produces a 500 and never takes the router down, and every request
// lands in the endpoint table.
func (rt *Router) instrument(ep int, next http.Handler) http.Handler {
	return rt.metrics.endpoints.Instrument(ep, func(r *http.Request, rec any) {
		rt.cfg.Logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
	}, next)
}

// shardResult is one attempt chain's outcome for one shard.
type shardResult struct {
	status int
	ctype  string // the response's Content-Type
	body   []byte
	frame  ruleframe.Frame // a read's decoded 200 body; aliases body
	err    error
}

// finish reads c's reply and reports the outcome to the pool. A 5xx is a
// failed attempt: retryable, counted against the replica. So, for a read, is a 200
// that is not a well-formed frame — torn, corrupt, or a plain document from
// a shard that does not speak the frame. A failed attempt's connection is
// not pooled. A failure the client's departure caused is no replica's
// fault and is not reported.
func (rt *Router) finish(x *exchange, c *shardCall) shardResult {
	res, n := x.receive(c)
	rt.metrics.shardBytes.Add(n)
	switch {
	case res.err != nil:
	case res.status >= 500:
		res.err = fmt.Errorf("cluster: shard replica %s: HTTP %d", c.node, res.status)
	case !x.req.frame || res.status != http.StatusOK:
	case res.ctype != ruleframe.MediaType:
		res.err = fmt.Errorf("cluster: shard replica %s answered 200 as %q, want %s", c.node, res.ctype, ruleframe.MediaType)
		rt.cfg.Logf("%v", res.err)
	default:
		if res.frame, res.err = ruleframe.Decode(res.body); res.err != nil {
			res.err = fmt.Errorf("cluster: shard replica %s: %w", c.node, res.err)
			rt.cfg.Logf("%v", res.err)
		}
	}
	if res.err == nil {
		rt.pool.ReportSuccess(c.node)
		return res
	}
	if c.conn != nil {
		c.conn.keep = false
	}
	if x.ctx.Err() == nil {
		rt.pool.ReportFailure(c.node)
		rt.conns.closeIdle(c.addr)
	}
	return res
}

// fanOut sends req to every shard, then reads each reply in shard order,
// then retries each failed shard on a sibling replica; all of it on the
// caller's goroutine, under one deadline of ShardTimeout. It returns the
// outcomes indexed by shard id: both read endpoints query the whole
// cluster. A shard with no routable replica at all is errNoReplica.
func (rt *Router) fanOut(ctx context.Context, req shardRequest) []shardResult {
	x := rt.conns.begin(ctx, req, rt.cfg.ShardTimeout)
	defer x.end()
	calls := make([]shardCall, rt.pool.Shards())
	for shard := range calls {
		rt.budget.earn()
		c := &calls[shard]
		if c.node, c.addr = rt.pool.Pick(shard, nil); c.node == "" {
			rt.metrics.noReplica.Add(1)
			continue
		}
		rt.metrics.attempts.Add(1)
		x.send(c)
	}
	out := make([]shardResult, len(calls))
	for shard := range calls {
		if calls[shard].node == "" {
			out[shard].err = errNoReplica
		} else {
			out[shard] = rt.finish(x, &calls[shard])
		}
	}
	for shard, res := range out {
		if res.err != nil && calls[shard].node != "" {
			out[shard] = rt.retry(x, shard, calls[shard].node, res)
		}
	}
	return out
}

// retry runs a failed shard's further attempts, one sibling replica at a
// time, after the replica first failed with res. A retry needs a sibling to
// run on and a token from the retry budget, and none starts once the
// exchange's deadline has passed or its client has gone.
func (rt *Router) retry(x *exchange, shard int, first string, res shardResult) shardResult {
	tried := []string{first}
	for len(tried) < maxAttempts && x.live() {
		node, addr := rt.pool.Pick(shard, tried)
		if node == "" {
			break
		}
		if !rt.budget.take() {
			rt.metrics.retryDenied.Add(1)
			break
		}
		rt.metrics.retries.Add(1)
		rt.metrics.attempts.Add(1)
		tried = append(tried, node)
		c := shardCall{node: node, addr: addr}
		x.send(&c)
		if res = rt.finish(x, &c); res.err == nil {
			break
		}
	}
	return res
}

func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) {
	// The body is read once, checked as a shard checks it, and forwarded as
	// the client sent it, up to the end of its JSON value.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	req, body, err := serve.DecodeScore(r)
	if err != nil {
		serve.WriteRequestError(w, err)
		return
	}
	// Score matches antecedents against the basket's ancestor closure, so a
	// rule keyed by a category the basket never names may sit on any shard:
	// fan out to all of them, as /rules does.
	results := rt.fanOut(r.Context(), shardRequest{method: http.MethodPost, target: "/score", frame: true, body: body})

	rt.writeMerged(w, results, req.Limit, func() ([]byte, error) {
		return ruleframe.AppendScorePrefix(nil, req.Basket, req.MinRI)
	})
}

// writeMerged turns a fan-out's outcomes into the reply: the answering
// shards' frames merged into serving order behind the first one's envelope
// prefix (every shard serves the same taxonomy and echoes the same request,
// so the prefixes are identical), 206 with the missing shard ids spliced in
// when some did not answer. With none answering there is no shard prefix;
// degradedPrefix renders the router's own.
func (rt *Router) writeMerged(w http.ResponseWriter, results []shardResult, limit int,
	degradedPrefix func() ([]byte, error)) {
	if err := fault.Hit(PointMerge); err != nil {
		metrics.WriteError(w, http.StatusInternalServerError, "merge: %v", err)
		return
	}
	frames := make([]ruleframe.Frame, 0, len(results))
	var missing []int
	size := 0
	for shard, res := range results {
		switch {
		case res.err != nil:
			missing = append(missing, shard)
		case res.status != http.StatusOK:
			// A non-5xx error from a shard (4xx) would be the router's own
			// request reflected back; relay the first one verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.status)
			_, _ = w.Write(res.body)
			return
		default:
			frames = append(frames, res.frame)
			size += len(res.body)
		}
	}
	var prefix []byte
	if len(frames) > 0 {
		prefix = frames[0].Prefix
	} else {
		var err error
		if prefix, err = degradedPrefix(); err != nil {
			metrics.WriteError(w, http.StatusInternalServerError, "merge: %v", err)
			return
		}
	}
	status := http.StatusOK
	if len(missing) > 0 {
		status = http.StatusPartialContent
		rt.metrics.partials.Add(1)
	}
	// The frames' bytes bound the document's; only a degraded tail can make
	// append grow it.
	out := append(make([]byte, 0, len(prefix)+size), prefix...)
	out = appendMerged(out, frames, limit, missing)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(status)
	_, _ = w.Write(out) // a failed write is the client's disconnect
}

func (rt *Router) handleRules(w http.ResponseWriter, r *http.Request) {
	q, err := serve.ParseRulesQuery(r)
	if err != nil {
		serve.WriteRequestError(w, err)
		return
	}
	// Rules can mention the item on either side, so every shard may hold a
	// match: fan out to all of them with the original query.
	results := rt.fanOut(r.Context(), shardRequest{method: http.MethodGet, target: "/rules?" + r.URL.RawQuery, frame: true})

	rt.writeMerged(w, results, q.Limit, func() ([]byte, error) {
		// Every shard is missing: the honest degraded expansion is the item
		// itself (the partial flag tells the client why).
		return ruleframe.AppendRulesPrefix(nil, q.Item, []string{q.Item}, q.MinRI)
	})
}

// handleIngest forwards a write to the current ingest primary, as the JSON
// value the client sent. A client-keyed body is relayed as it is (the key
// makes cross-node retries safe); an unkeyed one gets a router-generated
// key and seq 1 appended as its last fields, so the router's own failover
// retries cannot double-apply a batch. (An empty key or zero seq the body
// names itself is then repeated; the node, as encoding/json, keeps the last.)
// A 409 from a node means it is not (or no longer) the primary — the router
// re-picks and retries; with no routable primary the answer is 503 with a
// Retry-After hint.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The body is checked as the node checks it before it is keyed.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	req, body, err := serve.DecodeIngest(r)
	if err != nil {
		serve.WriteRequestError(w, err)
		return
	}
	if req.Key == "" {
		var rnd [12]byte
		if _, err := rand.Read(rnd[:]); err != nil {
			metrics.WriteError(w, http.StatusInternalServerError, "generating idempotency key: %v", err)
			return
		}
		// The value is an object with at least one field (its baskets):
		// the key goes in before its closing brace.
		keyed := append(make([]byte, 0, len(body)+64), body[:len(body)-1]...)
		keyed = append(keyed, `,"key":"negrouter-`...)
		keyed = hex.AppendEncode(keyed, rnd[:])
		body = append(keyed, `","seq":1}`...)
	}
	x := rt.conns.begin(r.Context(), shardRequest{method: http.MethodPost, target: "/ingest", body: body}, rt.cfg.ShardTimeout)
	defer x.end()
	var tried []string
	for len(tried) < maxAttempts && x.live() {
		node, addr, ok := rt.pool.PickIngestPrimary(tried)
		if !ok {
			break
		}
		tried = append(tried, node)
		rt.metrics.attempts.Add(1)
		c := shardCall{node: node, addr: addr}
		x.send(&c)
		res := rt.finish(x, &c)
		if res.err != nil {
			rt.metrics.ingestRerouted.Add(1)
			continue
		}
		if res.status == http.StatusConflict {
			// The node believes it is not the primary (fenced or demoted):
			// its heartbeat role is out of date. Try any other candidate.
			rt.metrics.ingestRerouted.Add(1)
			continue
		}
		rt.metrics.ingestForwarded.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		return
	}
	rt.metrics.ingestNoPrimary.Add(1)
	w.Header().Set("Retry-After", "1")
	metrics.WriteError(w, http.StatusServiceUnavailable, "no routable ingest primary")
}

// routerHealth is the router /healthz payload.
type routerHealth struct {
	Status     string `json:"status"` // ok | degraded
	Shards     int    `json:"shards"`
	Routable   int    `json:"routableShards"`
	Registered int    `json:"registeredReplicas"`
	// IngestPrimary is the node currently advertising the primary ingest
	// role ("" when the cluster has no write path or the primary is down);
	// IngestStandbys counts live standbys ready to take over.
	IngestPrimary  string `json:"ingestPrimary,omitempty"`
	IngestStandbys int    `json:"ingestStandbys,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.pool.Status()
	doc := routerHealth{Status: "ok", Shards: st.Shards, Routable: st.Routable, Registered: st.Registered}
	if st.Routable < st.Shards {
		doc.Status = "degraded"
	}
	doc.IngestPrimary, doc.IngestStandbys = rt.pool.IngestTopology()
	metrics.WriteJSON(w, http.StatusOK, doc)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metrics.WriteJSON(w, http.StatusOK, rt.metrics.export(rt.pool))
}

func (rt *Router) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		metrics.WriteError(w, http.StatusMethodNotAllowed, "use POST /cluster/heartbeat")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var hb Heartbeat
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hb); err != nil {
		metrics.WriteError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	if err := rt.pool.Heartbeat(hb); err != nil {
		metrics.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	metrics.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	metrics.WriteJSON(w, http.StatusOK, rt.pool.Status())
}

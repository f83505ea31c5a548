package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/fault"
	"negmine/internal/metrics"
	"negmine/internal/ruleframe"
	"negmine/internal/serve"
)

// pickItems returns one item name per shard id (names whose ShardOfItem is
// exactly that shard), so tests can aim baskets at specific shards.
func pickItems(t testing.TB, shards int) []string {
	t.Helper()
	out := make([]string, shards)
	found := 0
	for i := 0; found < shards && i < 10000; i++ {
		name := fmt.Sprintf("item-%d", i)
		s := ShardOfItem(name, shards)
		if out[s] == "" {
			out[s] = name
			found++
		}
	}
	if found != shards {
		t.Fatalf("could not find one item per shard")
	}
	return out
}

// shardBackend is a fake negmined shard serving canned /score and /rules
// results, which must be in serving order.
type shardBackend struct {
	t       testing.TB
	srv     *httptest.Server
	matches []WireMatch
	rules   []WireRule
	fail    atomic.Bool  // every request answers 500
	delay   atomic.Int64 // nanoseconds to stall before answering
	hits    atomic.Int64
	framed  atomic.Int64 // bytes of /rules and /score replies sent
	// mangle, when set (before the first request), rewrites a read reply on
	// its way out: the corrupt and wrong-typed shards of the chaos tests.
	mangle    func(ctype string, body []byte) (string, []byte)
	lastScore atomic.Value // []byte: the last /score body received
}

func newShardBackend(t testing.TB) *shardBackend { return newShardBackendOn(t, nil) }

// newShardBackendOn is newShardBackend with configure applied to the
// server before it starts.
func newShardBackendOn(t testing.TB, configure func(*http.Server)) *shardBackend {
	b := &shardBackend{t: t}
	b.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		if d := b.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if b.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		switch r.URL.Path {
		case "/score":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			b.lastScore.Store(body)
			var req serve.ScoreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			prefix, err := ruleframe.AppendScorePrefix(nil, req.Basket, req.MinRI)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rules := make([]WireRule, len(b.matches))
			elems := make([]any, len(b.matches))
			for i, m := range b.matches {
				rules[i], elems[i] = m.WireRule, m
			}
			b.reply(w, r, prefix, rules, elems)
		case "/rules":
			q := r.URL.Query()
			minRI, _ := strconv.ParseFloat(q.Get("minri"), 64) // absent = 0, as on a real shard
			prefix, err := ruleframe.AppendRulesPrefix(nil, q.Get("item"), []string{q.Get("item")}, minRI)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			elems := make([]any, len(b.rules))
			for i, rule := range b.rules {
				elems[i] = rule
			}
			b.reply(w, r, prefix, b.rules, elems)
		case "/healthz":
			metrics.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		default:
			http.NotFound(w, r)
		}
	}))
	if configure != nil {
		configure(b.srv.Config)
	}
	b.srv.Start()
	t.Cleanup(b.srv.Close)
	return b
}

// reply answers a read with the frame the router must have asked for.
// rules are the canned results in serving order, elems the value each one
// renders as.
func (b *shardBackend) reply(w http.ResponseWriter, r *http.Request, prefix []byte, rules []WireRule, elems []any) {
	if got := r.Header.Get("Accept"); got != ruleframe.MediaType {
		b.t.Errorf("the router asked a shard for %q, want %s", got, ruleframe.MediaType)
	}
	ctype := ruleframe.MediaType
	out := ruleframe.AppendHeader(nil, prefix, len(rules))
	for i := range rules {
		out = ruleframe.AppendEntry(out, rules[i].RuleInterest, ruleframe.AppendSignature(nil, rules[i].Antecedent, rules[i].Consequent), elemJSON(b.t, elems[i]))
	}
	if b.mangle != nil {
		ctype, out = b.mangle(ctype, out)
	}
	b.framed.Add(int64(len(out)))
	w.Header().Set("Content-Type", ctype)
	_, _ = w.Write(out)
}

// elemJSON renders one rule or match as it stands in a document's list:
// what the old whole-document encoder emitted two levels deep.
func elemJSON(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	buf.WriteString("    ")
	enc := json.NewEncoder(&buf)
	enc.SetIndent("    ", "  ")
	if err := enc.Encode(v); err != nil {
		t.Errorf("rendering %+v: %v", v, err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func (b *shardBackend) addr() string { return strings.TrimPrefix(b.srv.URL, "http://") }

// testRouter builds a router with the given backends registered, one per
// shard slot (nil slots stay unregistered).
func testRouter(t testing.TB, cfg RouterConfig, backends ...[]*shardBackend) *Router {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = len(backends)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for shard, reps := range backends {
		for i, b := range reps {
			hb := Heartbeat{
				Node:   fmt.Sprintf("s%d-r%d", shard, i),
				Addr:   b.addr(),
				Shard:  shard,
				Shards: cfg.Shards,
			}
			if err := rt.Pool().Heartbeat(hb); err != nil {
				t.Fatalf("register shard %d replica %d: %v", shard, i, err)
			}
		}
	}
	return rt
}

func match(ri float64, ante, cons string) WireMatch {
	return WireMatch{
		WireRule: WireRule{Antecedent: []string{ante}, Consequent: []string{cons}, RuleInterest: ri},
		Triggers: map[string]string{ante: ante},
	}
}

func postScore(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, ScoreDoc) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc ScoreDoc
	if rec.Code == http.StatusOK || rec.Code == http.StatusPartialContent {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("bad score body: %v\n%s", err, rec.Body.Bytes())
		}
	}
	return rec, doc
}

func TestRouterScoreMergesAcrossShards(t *testing.T) {
	items := pickItems(t, 2)
	b0, b1 := newShardBackend(t), newShardBackend(t)
	b0.matches = []WireMatch{match(0.9, items[0], "x"), match(0.3, items[0], "y")}
	b1.matches = []WireMatch{match(0.5, items[1], "z")}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0}, []*shardBackend{b1})
	h := rt.Handler()

	body := fmt.Sprintf(`{"basket": [%q, %q]}`, items[0], items[1])
	rec, doc := postScore(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.Bytes())
	}
	if doc.Partial || len(doc.MissingShards) != 0 {
		t.Fatalf("healthy merge marked partial: %+v", doc)
	}
	if len(doc.Matches) != 3 {
		t.Fatalf("merged %d matches, want 3", len(doc.Matches))
	}
	// Interleaved by RI: 0.9 (shard 0), 0.5 (shard 1), 0.3 (shard 0).
	ris := []float64{doc.Matches[0].RuleInterest, doc.Matches[1].RuleInterest, doc.Matches[2].RuleInterest}
	if ris[0] != 0.9 || ris[1] != 0.5 || ris[2] != 0.3 {
		t.Fatalf("merge order = %v", ris)
	}
	// A basket whose items all live on one shard still queries every
	// shard: another shard may own a rule triggered through an ancestor.
	b0.hits.Store(0)
	b1.hits.Store(0)
	rec, _ = postScore(t, h, fmt.Sprintf(`{"basket": [%q]}`, items[0]))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if b0.hits.Load() == 0 || b1.hits.Load() == 0 {
		t.Fatalf("/score did not fan out to every shard: hits %d / %d", b0.hits.Load(), b1.hits.Load())
	}
}

func TestRouterScorePartialOnDeadShard(t *testing.T) {
	items := pickItems(t, 2)
	b0 := newShardBackend(t)
	b0.matches = []WireMatch{match(0.9, items[0], "x")}
	// Shard 1 has no registered replica at all.
	rt := testRouter(t, RouterConfig{Shards: 2, Logf: t.Logf}, []*shardBackend{b0})
	h := rt.Handler()

	body := fmt.Sprintf(`{"basket": [%q, %q]}`, items[0], items[1])
	rec, doc := postScore(t, h, body)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206\n%s", rec.Code, rec.Body.Bytes())
	}
	if !doc.Partial || len(doc.MissingShards) != 1 || doc.MissingShards[0] != 1 {
		t.Fatalf("partial doc = %+v", doc)
	}
	if len(doc.Matches) != 1 || doc.Matches[0].RuleInterest != 0.9 {
		t.Fatalf("surviving shard's matches missing: %+v", doc.Matches)
	}
}

func TestRouterRetriesAgainstSiblingReplica(t *testing.T) {
	items := pickItems(t, 1)
	bad, good := newShardBackend(t), newShardBackend(t)
	bad.fail.Store(true)
	good.matches = []WireMatch{match(0.7, items[0], "x")}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{bad, good})
	h := rt.Handler()

	// Whichever replica is tried first, a 500 must be retried on the sibling
	// within the retry budget, yielding a full (not partial) answer.
	for i := 0; i < 2; i++ {
		rec, doc := postScore(t, h, fmt.Sprintf(`{"basket": [%q]}`, items[0]))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d\n%s", rec.Code, rec.Body.Bytes())
		}
		if doc.Partial || len(doc.Matches) != 1 {
			t.Fatalf("doc = %+v", doc)
		}
	}
	if bad.hits.Load() == 0 {
		t.Fatal("failing replica was never tried — retry path not exercised")
	}
	m := rt.metrics
	if m.retries.Load() == 0 {
		t.Fatalf("retries = 0, attempts = %d", m.attempts.Load())
	}
	// The failure was reported: the bad replica is now suspect.
	if got := replicaState(t, rt.Pool(), "s0-r0"); got == "healthy" {
		t.Fatal("failing replica still marked healthy")
	}
}

// TestRouterNoSiblingSpendsNoRetryToken: a failure on a shard with no
// sibling replica has nothing to retry on, so it must neither spend a retry
// token nor count a retry or a denial; the budget stays whole for a shard
// whose replicas can use it.
func TestRouterNoSiblingSpendsNoRetryToken(t *testing.T) {
	items := pickItems(t, 1)
	only := newShardBackend(t)
	only.fail.Store(true)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{only})
	h := rt.Handler()
	for i := 0; i < 3; i++ {
		if rec, _ := postScore(t, h, fmt.Sprintf(`{"basket": [%q]}`, items[0])); rec.Code != http.StatusPartialContent {
			t.Fatalf("request %d: status = %d, want 206", i, rec.Code)
		}
	}
	if only.hits.Load() == 0 {
		t.Fatal("the failing replica was never tried")
	}
	rt.budget.mu.Lock()
	tokens := rt.budget.tokens
	rt.budget.mu.Unlock()
	if tokens != rt.budget.burst {
		t.Errorf("retry tokens = %v after failures with no sibling, want the full %v", tokens, rt.budget.burst)
	}
	if r, d := rt.metrics.retries.Load(), rt.metrics.retryDenied.Load(); r != 0 || d != 0 {
		t.Errorf("retries = %d, retryDenied = %d, want 0 and 0", r, d)
	}
}

func TestRouterDialFailpointDegradesNever500(t *testing.T) {
	items := pickItems(t, 2)
	b0, b1 := newShardBackend(t), newShardBackend(t)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0}, []*shardBackend{b1})
	h := rt.Handler()

	defer fault.Enable(PointDial, fault.Error("replica unreachable"))()
	body := fmt.Sprintf(`{"basket": [%q, %q]}`, items[0], items[1])
	rec, doc := postScore(t, h, body)
	if rec.Code >= 500 {
		t.Fatalf("injected dial failure surfaced as %d — must degrade, not fail", rec.Code)
	}
	if rec.Code != http.StatusPartialContent || !doc.Partial {
		t.Fatalf("status = %d, doc = %+v, want 206 partial", rec.Code, doc)
	}
	if len(doc.MissingShards) != 2 {
		t.Fatalf("missingShards = %v, want both", doc.MissingShards)
	}
	if len(doc.Matches) != 0 {
		t.Fatalf("matches = %v, want none", doc.Matches)
	}
}

func TestRouterMergeFailpointIs500(t *testing.T) {
	items := pickItems(t, 1)
	b0 := newShardBackend(t)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0})
	h := rt.Handler()

	defer fault.Enable(PointMerge, fault.Error("merge bug"))()
	rec, _ := postScore(t, h, fmt.Sprintf(`{"basket": [%q]}`, items[0]))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (merge is the router's own fault)", rec.Code)
	}
}

// TestRouterCorruptFrameIsPartial: a shard that answers 200 with anything
// but a well-formed frame — torn, garbled, trailing bytes, or a perfectly
// good document from a daemon that does not speak the frame — is a failed
// shard. The attempt is reported to the pool like any failure, the shard is
// listed missing, and the client gets a well-formed 206 with the healthy
// shard's results, never a 5xx and never the corrupt bytes.
func TestRouterCorruptFrameIsPartial(t *testing.T) {
	items := pickItems(t, 2)
	plainDoc := encodeDoc(t, ScoreDoc{Basket: []string{"x"}, Matches: []WireMatch{match(0.99, items[1], "stolen")}})
	for name, mangle := range map[string]func(string, []byte) (string, []byte){
		"torn":            func(ct string, b []byte) (string, []byte) { return ct, b[:len(b)-7] },
		"torn in header":  func(ct string, b []byte) (string, []byte) { return ct, b[:6] },
		"empty":           func(ct string, b []byte) (string, []byte) { return ct, nil },
		"flipped length":  func(ct string, b []byte) (string, []byte) { b[8] ^= 0x40; return ct, b },
		"trailing bytes":  func(ct string, b []byte) (string, []byte) { return ct, append(b, "\n"...) },
		"plain document":  func(string, []byte) (string, []byte) { return "application/json", plainDoc },
		"frame, mistyped": func(_ string, b []byte) (string, []byte) { return "application/json", b },
		"document, typed": func(ct string, _ []byte) (string, []byte) { return ct, plainDoc },
	} {
		t.Run(name, func(t *testing.T) {
			good, bad := newShardBackend(t), newShardBackend(t)
			good.matches = []WireMatch{match(0.9, items[0], "x")}
			good.rules = []WireRule{good.matches[0].WireRule}
			bad.matches = []WireMatch{match(0.8, items[1], "y")}
			bad.rules = []WireRule{bad.matches[0].WireRule}
			bad.mangle = mangle
			rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{good}, []*shardBackend{bad})
			h := rt.Handler()

			rec, doc := postScore(t, h, fmt.Sprintf(`{"basket": [%q, %q]}`, items[0], items[1]))
			if rec.Code != http.StatusPartialContent {
				t.Fatalf("/score status = %d, want 206\n%s", rec.Code, rec.Body.Bytes())
			}
			if !doc.Partial || len(doc.MissingShards) != 1 || doc.MissingShards[0] != 1 {
				t.Fatalf("/score doc = %+v, want shard 1 missing", doc)
			}
			if len(doc.Matches) != 1 || doc.Matches[0].RuleInterest != 0.9 {
				t.Fatalf("/score matches = %+v, want the healthy shard's only", doc.Matches)
			}
			if got := replicaState(t, rt.Pool(), "s1-r0"); got == "healthy" {
				t.Fatal("the corrupt attempt was not reported to the pool: replica still healthy")
			}
			if got := replicaState(t, rt.Pool(), "s0-r0"); got != "healthy" {
				t.Fatalf("healthy replica is %s", got)
			}

			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/rules?item=x", nil))
			var rules RulesDoc
			if err := json.Unmarshal(rr.Body.Bytes(), &rules); rr.Code != http.StatusPartialContent || err != nil {
				t.Fatalf("/rules status = %d (%v), want a well-formed 206\n%s", rr.Code, err, rr.Body.Bytes())
			}
			if !rules.Partial || len(rules.MissingShards) != 1 || rules.MissingShards[0] != 1 || len(rules.Rules) != 1 {
				t.Fatalf("/rules doc = %+v", rules)
			}
			if rt.metrics.partials.Load() != 2 {
				t.Fatalf("partialResponses = %d, want 2", rt.metrics.partials.Load())
			}
		})
	}
}

// TestRouterCorruptFrameRetriesSibling: a corrupt 200 is retried on a
// sibling replica within the retry budget, exactly as a 5xx is, so one bad
// replica does not degrade the answer.
func TestRouterCorruptFrameRetriesSibling(t *testing.T) {
	items := pickItems(t, 1)
	bad, good := newShardBackend(t), newShardBackend(t)
	bad.mangle = func(ct string, b []byte) (string, []byte) { return ct, b[:len(b)/2] }
	bad.matches = []WireMatch{match(0.7, items[0], "x")}
	good.matches = bad.matches
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{bad, good})
	for i := 0; i < 2; i++ {
		rec, doc := postScore(t, rt.Handler(), fmt.Sprintf(`{"basket": [%q]}`, items[0]))
		if rec.Code != http.StatusOK || doc.Partial || len(doc.Matches) != 1 {
			t.Fatalf("status = %d, doc = %+v", rec.Code, doc)
		}
	}
	if bad.hits.Load() == 0 || rt.metrics.retries.Load() == 0 {
		t.Fatalf("corrupt replica hit %d times, %d retries: retry path not exercised", bad.hits.Load(), rt.metrics.retries.Load())
	}
}

// TestRouterCountsShardBytes: fanout.shardBytesRead rises by exactly the
// bytes the shards sent in answer to reads.
func TestRouterCountsShardBytes(t *testing.T) {
	items := pickItems(t, 2)
	b0, b1 := newShardBackend(t), newShardBackend(t)
	b0.matches = []WireMatch{match(0.9, items[0], "x"), match(0.3, items[0], "y")}
	b0.rules = []WireRule{b0.matches[0].WireRule}
	b1.matches = []WireMatch{match(0.5, items[1], "z")}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0}, []*shardBackend{b1})
	h := rt.Handler()
	read := func() int64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var doc routerMetricsJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Fanout.ShardBytes
	}
	if got := read(); got != 0 {
		t.Fatalf("shardBytesRead = %d before any read", got)
	}
	var last int64
	for i, do := range []func(){
		func() { postScore(t, h, fmt.Sprintf(`{"basket": [%q, %q]}`, items[0], items[1])) },
		func() { h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/rules?item=x", nil)) },
		func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/rules?item=nothing&limit=1", nil))
		},
	} {
		do()
		sent := b0.framed.Load() + b1.framed.Load()
		if got := read(); got != sent || got <= last {
			t.Fatalf("after read %d: shardBytesRead = %d, shards sent %d frame bytes (previously %d)", i, got, sent, last)
		}
		last = sent
	}
}

func TestRouterRulesFansToAllShards(t *testing.T) {
	b0, b1 := newShardBackend(t), newShardBackend(t)
	b0.rules = []WireRule{{Antecedent: []string{"a"}, Consequent: []string{"q"}, RuleInterest: 0.2}}
	b1.rules = []WireRule{{Antecedent: []string{"b"}, Consequent: []string{"q"}, RuleInterest: 0.8}}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0}, []*shardBackend{b1})
	h := rt.Handler()

	req := httptest.NewRequest(http.MethodGet, "/rules?item=q&minri=0.1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.Bytes())
	}
	var doc RulesDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Item != "q" || doc.MinRI != 0.1 || doc.Partial {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Rules) != 2 || doc.Rules[0].RuleInterest != 0.8 || doc.Rules[1].RuleInterest != 0.2 {
		t.Fatalf("rules = %+v", doc.Rules)
	}
	if b0.hits.Load() == 0 || b1.hits.Load() == 0 {
		t.Fatal("/rules did not fan out to every shard")
	}

	// Missing item parameter is the router's own 400, no fan-out.
	b0.hits.Store(0)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	// A query that could not stand in a request line is refused too: the
	// router writes its shard requests by hand.
	req = httptest.NewRequest(http.MethodGet, "/rules?item=q", nil)
	req.URL.RawQuery = "item=q HTTP/1.1\r\nX-Smuggled: 1"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("query with a line break: status = %d, want 400", rec.Code)
	}
	if b0.hits.Load() != 0 {
		t.Fatal("invalid request reached a shard")
	}
}

func TestRouterHeartbeatAndStatusEndpoints(t *testing.T) {
	rt := testRouter(t, RouterConfig{Shards: 2, Logf: t.Logf})
	h := rt.Handler()

	hb := `{"node": "n0", "addr": "127.0.0.1:9", "shard": 1, "shards": 2, "generation": 4, "rules": 11}`
	req := httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader([]byte(hb)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat status = %d\n%s", rec.Code, rec.Body.Bytes())
	}

	// Mismatched width is rejected.
	bad := `{"node": "n1", "addr": "127.0.0.1:9", "shard": 0, "shards": 3}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader([]byte(bad))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad heartbeat status = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Registered != 1 || st.Routable != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Table[1].Replicas[0].Generation != 4 || st.Table[1].Replicas[0].Rules != 11 {
		t.Fatalf("replica row = %+v", st.Table[1].Replicas[0])
	}

	// /healthz reports degraded while a shard has no replica.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health routerHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Routable != 1 {
		t.Fatalf("health = %+v", health)
	}

	// /metrics exports fan-out counters and the cluster table.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var metrics routerMetricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Cluster.Registered != 1 {
		t.Fatalf("metrics cluster block = %+v", metrics.Cluster)
	}
}

// TestRouterAcceptsDegradedHeartbeat pins heartbeat compatibility: nodes
// whose admission had a degraded mode send "degraded" in their heartbeats,
// and the router, which refuses unknown fields, must still register them.
func TestRouterAcceptsDegradedHeartbeat(t *testing.T) {
	rt := testRouter(t, RouterConfig{Shards: 1, Logf: t.Logf})
	h := rt.Handler()

	hb := `{"node": "old", "addr": "127.0.0.1:9", "shard": 0, "shards": 1, "rules": 3, "degraded": true}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", strings.NewReader(hb)))
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat with degraded = %d\n%s", rec.Code, rec.Body.Bytes())
	}
	if st := rt.pool.Status(); st.Registered != 1 || st.Routable != 1 || st.Table[0].Replicas[0].Node != "old" {
		t.Fatalf("status = %+v, want node old registered and routable", st)
	}
}

func TestRouterRejectsBadScoreRequests(t *testing.T) {
	b0 := newShardBackend(t)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0})
	h := rt.Handler()

	for _, body := range []string{``, `{}`, `{"basket": []}`, `{"basket": ["a"], "bogus": 1}`} {
		rec, _ := postScore(t, h, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/score", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /score = %d, want 405", rec.Code)
	}
	if b0.hits.Load() != 0 {
		t.Fatal("invalid requests reached the shard")
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("zero-shard router accepted")
	}
	if _, err := NewRouter(RouterConfig{Shards: -1}); err == nil {
		t.Fatal("negative-shard router accepted")
	}
}

func TestRetryBudgetBounds(t *testing.T) {
	b := &retryBudget{ratio: 0.5, burst: 2, tokens: 2}
	if !b.take() || !b.take() {
		t.Fatal("full bucket refused takes")
	}
	if b.take() {
		t.Fatal("empty bucket granted a take")
	}
	b.earn()
	b.earn() // 1.0 token
	if !b.take() {
		t.Fatal("earned token refused")
	}
	for i := 0; i < 100; i++ {
		b.earn()
	}
	if b.tokens > b.burst {
		t.Fatalf("tokens %v exceeded burst %v", b.tokens, b.burst)
	}
	disabled := &retryBudget{ratio: -1}
	disabled.earn()
	if disabled.take() {
		t.Fatal("disabled budget granted a retry")
	}
	if errors.Is(errNoReplica, fault.ErrInjected) {
		t.Fatal("sentinel confusion")
	}
}

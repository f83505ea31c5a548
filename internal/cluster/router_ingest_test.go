package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"negmine/internal/metrics"
	"negmine/internal/serve"
)

// ingestBackend is a fake negmined write node: it records the /ingest
// bodies it receives and answers with a configurable status.
type ingestBackend struct {
	srv      *httptest.Server
	status   atomic.Int64
	hits     atomic.Int64
	lastBody atomic.Value // string
}

func newIngestBackend(t *testing.T, status int) *ingestBackend {
	b := &ingestBackend{}
	b.status.Store(int64(status))
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		b.hits.Add(1)
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.lastBody.Store(buf.String())
		code := int(b.status.Load())
		switch code {
		case http.StatusAccepted:
			metrics.WriteJSON(w, code, map[string]any{"first": 1, "last": 2, "count": 2})
		case http.StatusOK:
			metrics.WriteJSON(w, code, map[string]any{"first": 1, "last": 2, "count": 2, "duplicate": true})
		default:
			metrics.WriteJSON(w, code, map[string]any{"error": "not the ingest primary"})
		}
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *ingestBackend) addr() string { return strings.TrimPrefix(b.srv.URL, "http://") }

func ingestHB(node, addr, role string) Heartbeat {
	return Heartbeat{Node: node, Addr: addr, Shard: 0, Shards: 1, IngestRole: role}
}

func postIngest(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func routerMetricsDoc(t *testing.T, h http.Handler) routerMetricsJSON {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	var doc routerMetricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRouterIngestForwardsToPrimary(t *testing.T) {
	primary := newIngestBackend(t, http.StatusAccepted)
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("p", primary.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// A keyed body's JSON value is relayed byte-for-byte, whatever its
	// spacing and field order (what follows the value is not), and the 202
	// comes back verbatim.
	const keyed = "{ \"seq\": 7,\n  \"key\": \"w1\", \"baskets\": [[\"beer\", \"chips\"]] }"
	rec := postIngest(t, h, keyed+"\n")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("keyed ingest: HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := primary.lastBody.Load().(string); got != keyed {
		t.Fatalf("keyed body relayed as %q, want the posted value %q", got, keyed)
	}
	var resp struct {
		First, Last, Count int64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.First != 1 || resp.Last != 2 || resp.Count != 2 {
		t.Fatalf("relayed response = %+v", resp)
	}

	// An unkeyed body gets a router-generated key and seq 1 spliced in before
	// its closing brace, so the router's own retries cannot double-apply. A
	// body that names an empty key or a zero seq, in any case, is unkeyed
	// too: the node reads the spliced fields, which come last.
	for _, unkeyed := range []string{
		" {\"baskets\": [[\"milk\"]]} \n",
		`{"baskets":[["milk"]],"key":""}`,
		`{"baskets":[["milk"]],"key":null}`,
		`{"baskets":[["milk"]],"Key":null,"seq":0}`,
		`{"SEQ":0,"baskets":[["milk"]],"kEy":""}`,
	} {
		rec = postIngest(t, h, unkeyed)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("unkeyed ingest %q: HTTP %d: %s", unkeyed, rec.Code, rec.Body)
		}
		got := primary.lastBody.Load().(string)
		if want := strings.TrimRight(unkeyed, " \n"); !strings.HasPrefix(got, want[:len(want)-1]+`,"key":"negrouter-`) {
			t.Fatalf("unkeyed body %q relayed as %q, want the posted value with a key appended", unkeyed, got)
		}
		relayed, _, err := serve.DecodeIngest(httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(got)))
		if err != nil {
			t.Fatalf("relayed body %q: %v", got, err)
		}
		if !strings.HasPrefix(relayed.Key, "negrouter-") || relayed.Seq != 1 ||
			len(relayed.Baskets) != 1 || len(relayed.Baskets[0]) != 1 || relayed.Baskets[0][0] != "milk" {
			t.Fatalf("router did not inject an idempotency key into %q: %+v", unkeyed, relayed)
		}
	}

	// Duplicate acks (200) relay verbatim too — the client sees the same
	// contract it would talking to the primary directly.
	primary.status.Store(http.StatusOK)
	rec = postIngest(t, h, `{"baskets":[["milk"]],"key":"w1","seq":7}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"duplicate": true`) {
		t.Fatalf("duplicate relay: HTTP %d: %s", rec.Code, rec.Body)
	}

	m := routerMetricsDoc(t, h)
	if m.Ingest.Forwarded != 7 || m.Ingest.Rerouted != 0 || m.Ingest.NoPrimary != 0 {
		t.Fatalf("ingest metrics = %+v", m.Ingest)
	}
}

// TestRouterIngestBodyBound pins the router's own 1 MiB bound on /ingest: a
// larger body answers 413 and reaches no node, and the router still relays
// the next write.
func TestRouterIngestBodyBound(t *testing.T) {
	primary := newIngestBackend(t, http.StatusAccepted)
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("p", primary.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	big := `{"baskets":[["beer"` + strings.Repeat(`,"beer"`, 1<<20/7) + `]],"key":"w1","seq":1}`
	if rec := postIngest(t, h, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: HTTP %d: %s, want 413", rec.Code, rec.Body)
	}
	if n := primary.hits.Load(); n != 0 {
		t.Fatalf("oversized ingest reached the primary %d times", n)
	}
	if rec := postIngest(t, h, `{"baskets":[["beer"]],"key":"w1","seq":1}`); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest after a 413: HTTP %d: %s", rec.Code, rec.Body)
	}
	m := routerMetricsDoc(t, h)
	if m.Ingest.Forwarded != 1 || primary.hits.Load() != 1 {
		t.Fatalf("forwarded = %d, primary hits = %d, want 1 and 1", m.Ingest.Forwarded, primary.hits.Load())
	}
}

func TestRouterIngestReroutesOn409(t *testing.T) {
	// The fenced node still advertises "primary" (stale heartbeat); its 409
	// must bounce the write to the real primary, invisibly to the client.
	fenced := newIngestBackend(t, http.StatusConflict)
	real := newIngestBackend(t, http.StatusAccepted)
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("old", fenced.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("new", real.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	rec := postIngest(t, h, `{"baskets":[["beer"]],"key":"w1","seq":1}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest through failover: HTTP %d: %s", rec.Code, rec.Body)
	}
	if real.hits.Load() != 1 {
		t.Fatalf("real primary hits = %d, want 1", real.hits.Load())
	}
	m := routerMetricsDoc(t, h)
	// One of the two picks hit the fenced node first (heartbeat order is
	// racy by a nanosecond clock, so allow 0 or 1 reroutes) but the write
	// was forwarded exactly once either way.
	if m.Ingest.Forwarded != 1 {
		t.Fatalf("forwarded = %d, want 1 (rerouted %d)", m.Ingest.Forwarded, m.Ingest.Rerouted)
	}
	if fenced.hits.Load() > 0 && m.Ingest.Rerouted != 1 {
		t.Fatalf("fenced node was hit but rerouted = %d", m.Ingest.Rerouted)
	}
}

func TestRouterIngestNoPrimary503(t *testing.T) {
	standbyOnly := newIngestBackend(t, http.StatusAccepted)
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("s", standbyOnly.addr(), "standby")); err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	rec := postIngest(t, h, `{"baskets":[["beer"]]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-primary ingest: HTTP %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After hint")
	}
	if standbyOnly.hits.Load() != 0 {
		t.Fatal("standby received a forwarded write")
	}
	m := routerMetricsDoc(t, h)
	if m.Ingest.NoPrimary != 1 || m.Ingest.Forwarded != 0 {
		t.Fatalf("ingest metrics = %+v", m.Ingest)
	}

	// Bad requests are rejected at the router, not forwarded.
	if rec := postIngest(t, h, `{"baskets":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty baskets: HTTP %d", rec.Code)
	}
	if rec := postIngest(t, h, `{nope`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", rec.Code)
	}
}

func TestRouterHealthzReportsIngestTopology(t *testing.T) {
	primary := newIngestBackend(t, http.StatusAccepted)
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("p", primary.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(ingestHB("s", "127.0.0.1:1", "standby")); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var doc struct {
		IngestPrimary  string `json:"ingestPrimary"`
		IngestStandbys int    `json:"ingestStandbys"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.IngestPrimary != "p" || doc.IngestStandbys != 1 {
		t.Fatalf("healthz ingest topology = %+v", doc)
	}
}

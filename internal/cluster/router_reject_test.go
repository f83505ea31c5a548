package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

// acceptSink is an ingest sink that takes every batch.
type acceptSink struct{}

func (acceptSink) Ingest(context.Context, serve.IngestBatch) (serve.IngestResult, error) {
	return serve.IngestResult{Accepted: 1}, nil
}

func (acceptSink) Stats() serve.IngestStats { return serve.IngestStats{} }

// TestRouterRejectsAsShardDoes holds the router to negmined's handler on
// every request negmined refuses: the same status and error text, answered
// before any shard or ingest node is contacted.
func TestRouterRejectsAsShardDoes(t *testing.T) {
	reads := newShardBackend(t)
	primary := newIngestBackend(t, http.StatusAccepted)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{reads})
	if err := rt.Pool().Heartbeat(ingestHB("p", primary.addr(), "primary")); err != nil {
		t.Fatal(err)
	}
	router := rt.Handler()

	tb := taxonomy.NewBuilder()
	tb.Link("drinks", "a")
	tax, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.BuildSnapshot(rulestore.FromReport(&report.NegativeReport{}), tax, serve.Meta{})
	srv, err := serve.NewServer(context.Background(),
		func(context.Context) (*serve.Snapshot, error) { return snap, nil },
		serve.WithIngest(acceptSink{}), serve.WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	shard := srv.Handler()

	big := `{"basket":["a"` + strings.Repeat(`,"a"`, 1<<20/4) + `]}`
	for _, c := range []struct{ method, target, body string }{
		{"POST", "/ingest", `{"baskets":[["a"]],"seq":7}`},
		{"POST", "/ingest", `{"baskets":[["a"]],"key":"w1"}`},
		{"POST", "/ingest", `{"baskets":[["a"],[]],"key":"w1","seq":1}`},
		{"POST", "/ingest", `{"baskets":[]}`},
		{"POST", "/ingest", `{}`},
		{"POST", "/ingest", `null`},
		{"POST", "/ingest", `{"baskets":[["a"]],"bogus":1}`},
		{"POST", "/ingest", `{"baskets":[["a"]`},
		{"POST", "/ingest", ``},
		{"POST", "/ingest", `{"baskets":[["a"]],"seq":-1}`},
		{"POST", "/ingest", strings.Replace(big, "basket", "baskets", 1)},
		{"GET", "/ingest", ``},
		{"POST", "/score", ``},
		{"POST", "/score", `{}`},
		{"POST", "/score", `{"basket":[]}`},
		{"POST", "/score", `{"basket":["a"],"bogus":1}`},
		{"POST", "/score", `{"basket":["a"],"limit":-1}`},
		{"POST", "/score", `{"basket":["a"],"minRI":"x"}`},
		{"POST", "/score", `{"basket":["a"]`},
		{"POST", "/score", big},
		{"GET", "/score", ``},
		{"GET", "/rules", ``},
		{"GET", "/rules?item=", ``},
		{"GET", "/rules?item=a&minri=x", ``},
		{"GET", "/rules?item=a&minri=NaN", ``},
		{"GET", "/rules?item=a&minri=1e999", ``},
		{"GET", "/rules?item=a&limit=-1", ``},
		{"GET", "/rules?item=a&limit=x", ``},
		{"POST", "/rules?item=a", ``},
	} {
		answer := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
			return rec
		}
		want, got := answer(shard), answer(router)
		if want.Code < 400 || want.Code >= 500 {
			t.Fatalf("%s %s %.60q: negmined answers %d, want a refusal", c.method, c.target, c.body, want.Code)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s %s %.60q: router %d %s; negmined %d %s", c.method, c.target, c.body,
				got.Code, got.Body, want.Code, want.Body)
		}
	}
	if n, m := reads.hits.Load(), primary.hits.Load(); n != 0 || m != 0 {
		t.Fatalf("refused requests reached the shard %d times and the ingest primary %d times", n, m)
	}
}

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestBuildSnapshotKeepPartitionsRules(t *testing.T) {
	tax := testTaxonomy(t)
	full := BuildSnapshot(testStore(), tax, Meta{})

	// Partition by first antecedent letter — a stand-in for the cluster's
	// shard predicate. The two halves must tile the full rule set exactly.
	keepLow := func(ante, cons []string) bool { return ante[0] < "m" }
	low := BuildSnapshot(testStore(), tax, Meta{Keep: keepLow})
	high := BuildSnapshot(testStore(), tax, Meta{
		Keep: func(ante, cons []string) bool { return !keepLow(ante, cons) },
	})

	if low.Len()+high.Len() != full.Len() || low.Len() == 0 || high.Len() == 0 {
		t.Fatalf("partition sizes %d + %d, full %d", low.Len(), high.Len(), full.Len())
	}
	seen := map[string]bool{}
	for _, s := range []*Snapshot{low, high} {
		for _, e := range s.Rules() {
			key := strings.Join(e.Antecedent, ",") + "=>" + strings.Join(e.Consequent, ",")
			if seen[key] {
				t.Fatalf("rule %s appears in both shards", key)
			}
			seen[key] = true
		}
	}
	if len(seen) != full.Len() {
		t.Fatalf("union has %d rules, full snapshot %d", len(seen), full.Len())
	}

	// The taxonomy is interned in full regardless of the filter, so ancestor
	// expansion answers identically on every shard.
	want := full.Expand(nil, "pepsi")
	for _, s := range []*Snapshot{low, high} {
		if got := s.Expand(nil, "pepsi"); !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded Expand(pepsi) = %v, want %v", got, want)
		}
	}
}

func TestSnapshotShardLabel(t *testing.T) {
	snap := testSnapshot(t)
	if got := snap.Info().Shard; got != "" {
		t.Fatalf("unsharded snapshot labeled %q", got)
	}
	snap.SetShard(0, 3)
	if got := snap.Info().Shard; got != "0/3" {
		t.Fatalf("shard label = %q, want 0/3", got)
	}
}

func TestNodeIDSurfacesEverywhere(t *testing.T) {
	tax := testTaxonomy(t)
	srv, err := NewServer(context.Background(), func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), tax, Meta{}), nil
	}, WithLogger(func(string, ...any) {}), WithNodeID("shard0-a"))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := rec.Header().Get("X-Negmine-Node"); got != "shard0-a" {
		t.Fatalf("X-Negmine-Node = %q", got)
	}
	var health struct {
		Node string `json:"node"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Node != "shard0-a" {
		t.Fatalf("/healthz node = %q", health.Node)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	if string(metrics["node"]) != `"shard0-a"` {
		t.Fatalf("/metrics node = %s", metrics["node"])
	}
	// The header rides on every endpoint, not just /healthz.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=pepsi", nil))
	if got := rec.Header().Get("X-Negmine-Node"); got != "shard0-a" {
		t.Fatalf("/rules X-Negmine-Node = %q", got)
	}
}

func TestMetricsSnapshotAgeGauge(t *testing.T) {
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return testSnapshot(t), nil
	})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		Snapshot struct {
			AgeSeconds *float64 `json:"age_seconds"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Snapshot.AgeSeconds == nil {
		t.Fatal("/metrics snapshot block lacks the age_seconds gauge")
	}
	if *doc.Snapshot.AgeSeconds < 0 {
		t.Fatalf("age_seconds = %v for a just-built snapshot", *doc.Snapshot.AgeSeconds)
	}
}

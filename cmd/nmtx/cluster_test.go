package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"negmine/internal/cluster"
)

// fakeRouter serves a canned /cluster/status document.
func fakeRouter(t *testing.T, st cluster.Status) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/status" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClusterStatusHealthy(t *testing.T) {
	srv := fakeRouter(t, cluster.Status{
		Shards: 2, Routable: 2, Registered: 3, Heartbeats: 42,
		Table: []cluster.ShardStatus{
			{Shard: 0, Routable: true, Replicas: []cluster.ReplicaStatus{
				{Node: "n0", Addr: "127.0.0.1:9000", State: "healthy", Generation: 7,
					AgeSeconds: 1.5, FreshnessSeconds: 2.5, Rules: 120, SourceKind: "mmap"},
			}},
			{Shard: 1, Routable: true, Replicas: []cluster.ReplicaStatus{
				{Node: "n1", Addr: "127.0.0.1:9001", State: "healthy", Generation: 7, Rules: 115},
				{Node: "n1b", Addr: "127.0.0.1:9002", State: "suspect", Generation: 6, Rules: 115,
					Failures: 4, Requests: 100},
			}},
		},
	})

	var out strings.Builder
	if err := run([]string{"cluster", "status", "-router", srv.URL}, &out); err != nil {
		t.Fatalf("cluster status: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"(ok)", "2 (2 routable), 3 replicas, 42 heartbeats",
		"shard 0  routable", "n0", "gen 7", "fresh    2.5s", "via mmap",
		"shard 1  routable", "n1b", "suspect", "4/100 failed",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("status output missing %q:\n%s", want, text)
		}
	}
}

func TestClusterStatusDegradedIsAnError(t *testing.T) {
	srv := fakeRouter(t, cluster.Status{
		Shards: 3, Routable: 2, Registered: 2,
		Table: []cluster.ShardStatus{
			{Shard: 0, Routable: true, Replicas: []cluster.ReplicaStatus{{Node: "n0", State: "healthy"}}},
			{Shard: 1, Routable: true, Replicas: []cluster.ReplicaStatus{{Node: "n1", State: "healthy"}}},
			{Shard: 2},
		},
	})

	var out strings.Builder
	err := run([]string{"cluster", "status", "-router", srv.URL}, &out)
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("degraded cluster err = %v", err)
	}
	text := out.String()
	for _, want := range []string{"(DEGRADED)", "shard 2  NOT ROUTABLE", "(no registered replicas)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("degraded output missing %q:\n%s", want, text)
		}
	}
}

func TestClusterUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"cluster"}, &out); err == nil {
		t.Fatal("bare cluster accepted")
	}
	if err := run([]string{"cluster", "bogus"}, &out); err == nil {
		t.Fatal("unknown cluster verb accepted")
	}
	if err := run([]string{"cluster", "status", "extra"}, &out); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := run([]string{"cluster", "status", "-router", "http://127.0.0.1:1", "-timeout", "50ms"}, &out); err == nil {
		t.Fatal("unreachable router reported success")
	}
}

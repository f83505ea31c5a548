package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"negmine/internal/cli"
	"negmine/internal/cluster"
)

func TestParseFlagsValidation(t *testing.T) {
	var sink strings.Builder
	for _, bad := range [][]string{
		{},                // -shards required
		{"-shards", "0"},  // zero width
		{"-shards", "-2"}, // negative width
		{"-shards", "3", "-shard-timeout", "0"},
		{"-shards", "3", "-shard-timeout", "-1s"},
		{"-shards", "3", "-probe-every", "0"},
		{"-shards", "3", "-heartbeat-ttl", "0"},
		{"-shards", "3", "-retry-budget", "-0.5"},
		{"-shards", "3", "-retry-burst", "-1"},
		{"-shards", "3", "-retry-burst", "0"},   // would become the default cap
		{"-shards", "3", "-retry-burst", "0.5"}, // a retry needs a whole token
		{"-shards", "3", "-down-after", "0"},
		{"-shards", "3", "-drain", "-1s"},
	} {
		_, err := parseFlags(bad, &sink)
		if err == nil {
			t.Fatalf("%v accepted", bad)
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Fatalf("%v: error %v exits %d, want 2 (usage)", bad, err, code)
		}
	}
	if _, err := parseFlags([]string{"-h"}, &sink); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
}

func TestParseFlagsWiresRouterConfig(t *testing.T) {
	var sink strings.Builder
	cfg, err := parseFlags([]string{
		"-shards", "4", "-shard-timeout", "750ms", "-retry-budget", "0.2",
		"-probe-every", "100ms", "-heartbeat-ttl", "1s",
		"-down-after", "2", "-retry-burst", "1.5",
	}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	rc := cfg.router
	if rc.Shards != 4 || rc.ShardTimeout != 750*time.Millisecond ||
		rc.RetryBudget != 0.2 || rc.RetryBurst != 1.5 {
		t.Fatalf("router config = %+v", rc)
	}
	if rc.Pool.ProbeInterval != 100*time.Millisecond || rc.Pool.HeartbeatTTL != time.Second ||
		rc.Pool.DownAfter != 2 {
		t.Fatalf("pool config = %+v", rc.Pool)
	}

	// -retry-budget 0 means "no retries", which RouterConfig spells as a
	// negative budget (its own zero value means "use the default").
	// The cap does not matter then, so any value passes.
	cfg, err = parseFlags([]string{"-shards", "2", "-retry-budget", "0", "-retry-burst", "0"}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.router.RetryBudget >= 0 {
		t.Fatalf("retry-budget 0 mapped to %v, want negative (disabled)", cfg.router.RetryBudget)
	}
}

// TestConfiguredRouterServes builds a router from parsed flags and checks
// the handler answers: an empty 3-shard cluster is degraded but alive, and
// a heartbeat registers a replica end to end.
func TestConfiguredRouterServes(t *testing.T) {
	var sink strings.Builder
	cfg, err := parseFlags([]string{"-shards", "3"}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cfg.router)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || health.Status != "degraded" || health.Shards != 3 {
		t.Fatalf("empty-cluster healthz = %d %+v", rec.Code, health)
	}

	hb := `{"node":"n0","addr":"127.0.0.1:9000","shard":0,"shards":3,"generation":1,"snapshotAgeSeconds":0,"rules":10}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", strings.NewReader(hb)))
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/status", nil))
	var st cluster.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Registered != 1 || st.Routable != 1 {
		t.Fatalf("status after heartbeat = %+v", st)
	}
}

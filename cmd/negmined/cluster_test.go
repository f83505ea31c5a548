package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"negmine/internal/cluster"
	"negmine/internal/report"
	"negmine/internal/serve"
)

func TestParseShardSpec(t *testing.T) {
	good := map[string]shardSpec{
		"0/1": {0, 1},
		"0/3": {0, 3},
		"2/3": {2, 3},
	}
	for in, want := range good {
		got, err := parseShardSpec(in)
		if err != nil || got != want {
			t.Fatalf("parseShardSpec(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "3", "a/3", "0/b", "-1/3", "3/3", "4/3", "0/0", "0/-1"} {
		if _, err := parseShardSpec(in); err == nil {
			t.Fatalf("parseShardSpec(%q) accepted", in)
		}
	}
}

func TestAdvertiseAddr(t *testing.T) {
	cases := []struct{ listen, override, want string }{
		{"[::]:8377", "", "127.0.0.1:8377"},
		{"0.0.0.0:8377", "", "127.0.0.1:8377"},
		{":8377", "", "127.0.0.1:8377"},
		{"10.1.2.3:8377", "", "10.1.2.3:8377"},
		{"[::]:8377", "db1:9000", "db1:9000"},
	}
	for _, c := range cases {
		if got := advertiseAddr(c.listen, c.override); got != c.want {
			t.Fatalf("advertiseAddr(%q, %q) = %q, want %q", c.listen, c.override, got, c.want)
		}
	}
}

func TestClusterFlagValidation(t *testing.T) {
	var sink strings.Builder
	base := []string{"-tax", "t.txt", "-report", "r.json"}
	with := func(extra ...string) []string { return append(append([]string{}, base...), extra...) }

	for _, bad := range [][]string{
		{"-shard", "3"},            // not k/n
		{"-shard", "3/3"},          // k out of range
		{"-shard", "-1/3"},         // negative k
		{"-cluster-join", "nope"},  // not an http URL
		{"-heartbeat", "500ms"},    // heartbeat without a cluster
		{"-advertise", "db1:9000"}, // advertise without a cluster
		{"-cluster-join", "http://r:1", "-heartbeat", "0s"},
		{"-cluster-join", "http://r:1", "-heartbeat", "-1s"},
	} {
		if _, err := parseFlags(with(bad...), &sink); err == nil {
			t.Fatalf("%v accepted", bad)
		}
	}

	// A full valid cluster config parses, and the join URL loses its
	// trailing slash (heartbeats POST join + "/cluster/heartbeat").
	cfg, err := parseFlags(with(
		"-shard", "1/3", "-cluster-join", "http://127.0.0.1:8378/",
		"-advertise", "db1:9000", "-heartbeat", "250ms", "-node-id", "n1"), &sink)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.spec != (shardSpec{1, 3}) || cfg.join != "http://127.0.0.1:8378" ||
		cfg.advertise != "db1:9000" || cfg.heartbeat != 250*time.Millisecond || cfg.nodeID != "n1" {
		t.Fatalf("cluster config = %+v", cfg)
	}

	// Joining without -shard means a single-shard cluster, not "unsharded".
	cfg, err = parseFlags(with("-cluster-join", "http://127.0.0.1:8378"), &sink)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.spec != (shardSpec{0, 1}) {
		t.Fatalf("joined spec = %+v, want 0/1", cfg.spec)
	}

	// -shard alone (no cluster) is fine: a statically sharded daemon.
	cfg, err = parseFlags(with("-shard", "0/2"), &sink)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.spec != (shardSpec{0, 2}) || cfg.join != "" {
		t.Fatalf("static shard config = %+v", cfg)
	}
}

// writeShardFixture writes a taxonomy plus a report whose rules spread over
// both shards of a 2-wide cluster, and returns the two paths with the
// per-shard rule counts implied by the cluster hash.
func writeShardFixture(t *testing.T, dir string) (repPath, taxPath string, perShard [2]int) {
	t.Helper()
	items := []string{"pepsi", "coke", "chips", "juice", "salsa", "bread"}
	rep := &report.NegativeReport{MinSupport: 0.02, MinRI: 0.5}
	var tax strings.Builder
	for i, it := range items {
		tax.WriteString("grocery " + it + "\n")
		cons := items[(i+1)%len(items)]
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent:   []string{it},
			Consequent:   []string{cons},
			RuleInterest: 0.5 + float64(i)/100,
		})
		perShard[cluster.ShardOfItem(it, 2)]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("fixture items all hash to one shard: %v", perShard)
	}
	repPath = filepath.Join(dir, "rules.json")
	taxPath = filepath.Join(dir, "tax.txt")
	raw, _ := json.Marshal(rep)
	if err := os.WriteFile(repPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(taxPath, []byte(tax.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return repPath, taxPath, perShard
}

// TestShardFilterPartitionsDaemon boots the daemon as each shard of a
// 2-wide cluster and checks that the shards tile the full rule set, carry
// the shard label, and answer /rules only for rules they own.
func TestShardFilterPartitionsDaemon(t *testing.T) {
	repPath, taxPath, perShard := writeShardFixture(t, t.TempDir())

	full, _ := newDaemon(t, "-report", repPath, "-tax", taxPath)
	total := full.Snapshot().Len()

	var shards [2]*serve.Server
	for k := range shards {
		srv, _ := newDaemon(t, "-report", repPath, "-tax", taxPath,
			"-shard", []string{"0/2", "1/2"}[k])
		shards[k] = srv
	}
	if n0, n1 := shards[0].Snapshot().Len(), shards[1].Snapshot().Len(); n0+n1 != total ||
		n0 != perShard[0] || n1 != perShard[1] {
		t.Fatalf("shards hold %d + %d rules, want %d + %d (total %d)",
			n0, n1, perShard[0], perShard[1], total)
	}
	for k, srv := range shards {
		want := []string{"0/2", "1/2"}[k]
		if got := srv.Snapshot().Info().Shard; got != want {
			t.Fatalf("shard %d labeled %q, want %q", k, got, want)
		}
	}
	if got := full.Snapshot().Info().Shard; got != "" {
		t.Fatalf("unsharded daemon labeled %q", got)
	}

	// Shard ownership survives a reload (the Keep predicate is part of the
	// loader, not a one-time filter).
	if err := shards[0].Reload(context.Background()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := shards[0].Snapshot().Len(); got != perShard[0] {
		t.Fatalf("after reload shard 0 holds %d rules, want %d", got, perShard[0])
	}
	if got := shards[0].Snapshot().Info().Shard; got != "0/2" {
		t.Fatalf("after reload shard label = %q", got)
	}

	// With a snapshot store, a restarted shard boots from its own stored
	// generation (mmap, no report read) and keeps its rule count and label,
	// which the .nsnap file does not carry; a replica of that store started
	// with the same -shard carries the label too.
	dir := t.TempDir()
	for k, spec := range []string{"0/2", "1/2"} {
		snapDir := filepath.Join(dir, "snaps"+spec[:1])
		args := []string{"-report", repPath, "-tax", taxPath, "-shard", spec, "-snapshot-dir", snapDir}
		first, _ := newDaemon(t, args...)
		if info := first.Snapshot().Info(); info.SourceKind != "json" || info.Generation != 1 ||
			info.Rules != perShard[k] || info.Shard != spec {
			t.Fatalf("shard %s first boot = %+v, want json/1 with %d rules", spec, info, perShard[k])
		}
		restarted, _ := newDaemon(t, args...)
		if info := restarted.Snapshot().Info(); info.SourceKind != "mmap" || info.Generation != 1 ||
			info.Rules != perShard[k] || info.Shard != spec {
			t.Fatalf("shard %s restart = %+v, want mmap/1 with %d rules", spec, info, perShard[k])
		}
		replica, _ := newDaemon(t, "-snapshot-dir", snapDir, "-shard", spec)
		if info := replica.Snapshot().Info(); info.SourceKind != "mmap" || info.Rules != perShard[k] || info.Shard != spec {
			t.Fatalf("shard %s replica = %+v, want mmap with %d rules", spec, info, perShard[k])
		}
	}
}

// TestClusterHeartbeatSender runs the clusterMember loop against a fake
// router and checks the advertised heartbeat payload.
func TestClusterHeartbeatSender(t *testing.T) {
	repPath, taxPath, _ := writeShardFixture(t, t.TempDir())
	srv, _ := newDaemon(t, "-report", repPath, "-tax", taxPath, "-shard", "1/2")

	beats := make(chan cluster.Heartbeat, 16)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/cluster/heartbeat" {
			t.Errorf("unexpected router request %s %s", r.Method, r.URL.Path)
			http.NotFound(w, r)
			return
		}
		var hb cluster.Heartbeat
		if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
			t.Errorf("bad heartbeat body: %v", err)
		}
		select {
		case beats <- hb:
		default:
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer router.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &clusterMember{
		join:  router.URL,
		node:  "n1",
		addr:  "127.0.0.1:9001",
		spec:  shardSpec{shard: 1, shards: 2},
		every: 20 * time.Millisecond,
		logf:  func(string, ...any) {},
	}
	go m.run(ctx, srv)

	select {
	case hb := <-beats:
		if hb.Node != "n1" || hb.Addr != "127.0.0.1:9001" || hb.Shard != 1 || hb.Shards != 2 {
			t.Fatalf("heartbeat identity = %+v", hb)
		}
		if hb.Rules != srv.Snapshot().Len() || hb.Rules == 0 {
			t.Fatalf("heartbeat rules = %d, snapshot %d", hb.Rules, srv.Snapshot().Len())
		}
		if hb.Generation != srv.Snapshot().Info().Generation {
			t.Fatalf("heartbeat generation = %d", hb.Generation)
		}
		if hb.AgeSeconds < 0 {
			t.Fatalf("heartbeat age = %v", hb.AgeSeconds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat within 5s")
	}

	// The loop keeps beating, not just the registration beat.
	select {
	case <-beats:
	case <-time.After(5 * time.Second):
		t.Fatal("no second heartbeat within 5s")
	}
}

// TestClusterHeartbeatSurvivesRouterOutage checks the edge-triggered
// failure logging and that an unreachable router never stops the loop.
func TestClusterHeartbeatSurvivesRouterOutage(t *testing.T) {
	repPath, taxPath, _ := writeShardFixture(t, t.TempDir())
	srv, _ := newDaemon(t, "-report", repPath, "-tax", taxPath)

	var logs []string
	m := &clusterMember{
		join:  "http://127.0.0.1:1", // nothing listens on port 1
		node:  "n1",
		addr:  "127.0.0.1:9001",
		spec:  shardSpec{0, 1},
		every: 10 * time.Millisecond,
		logf:  func(format string, args ...any) { logs = append(logs, format) },
	}
	m.client = &http.Client{Timeout: 10 * time.Millisecond}
	ctx := context.Background()
	m.beat(ctx, srv)
	m.beat(ctx, srv)
	if len(logs) != 1 || !strings.Contains(logs[0], "failed") {
		t.Fatalf("outage logs = %q, want one failure edge", logs)
	}
	if !m.failing {
		t.Fatal("member not marked failing")
	}
}

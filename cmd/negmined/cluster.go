package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"negmine/internal/cluster"
	"negmine/internal/serve"
)

// shardSpec is the parsed -shard k/n assignment: this daemon serves shard k
// of an n-wide cluster. The zero value means "unsharded".
type shardSpec struct {
	shard  int
	shards int
}

func (s shardSpec) active() bool { return s.shards > 0 }

// keep returns the shard-ownership predicate for serve.Meta.Keep, or nil
// when the whole rule set belongs here (unsharded, or a 1-wide cluster).
func (s shardSpec) keep() func(ante, cons []string) bool {
	if s.shards <= 1 {
		return nil
	}
	return func(ante, cons []string) bool {
		return cluster.ShardOfAntecedent(ante, s.shards) == s.shard
	}
}

// parseShardSpec parses "k/n" with 0 ≤ k < n.
func parseShardSpec(v string) (shardSpec, error) {
	ks, ns, ok := strings.Cut(v, "/")
	if !ok {
		return shardSpec{}, fmt.Errorf("want k/n (e.g. 0/3), got %q", v)
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return shardSpec{}, fmt.Errorf("bad shard index %q: %v", ks, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return shardSpec{}, fmt.Errorf("bad shard count %q: %v", ns, err)
	}
	if n < 1 || k < 0 || k >= n {
		return shardSpec{}, fmt.Errorf("shard %d/%d out of range (want 0 ≤ k < n)", k, n)
	}
	return shardSpec{shard: k, shards: n}, nil
}

// advertiseAddr derives the address the router should dial: the -advertise
// override when given, otherwise the actual listen address with wildcard
// hosts rewritten to loopback (a router can't dial ":8377" or "[::]:8377").
func advertiseAddr(listen, override string) string {
	if override != "" {
		return override
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// clusterMember periodically POSTs this daemon's heartbeat to the router:
// liveness plus what it is serving (shard, snapshot generation/age/rules,
// ingest role), so the router can route around dead replicas and
// prefer fresh ones. Heartbeating is fire-and-forget — an unreachable
// router never affects serving, and the next successful beat re-registers
// the node from scratch (the router holds no durable state).
type clusterMember struct {
	join   string // router base URL (no trailing slash)
	node   string
	addr   string // advertised host:port
	spec   shardSpec
	every  time.Duration
	client *http.Client
	logf   func(format string, args ...any)

	// roleFn reports the node's ingest role (primary/standby/fenced/replica)
	// and replication lag for the heartbeat (nil = not reported).
	roleFn func() (string, int)

	failing bool // last beat failed (logs only on edges, not every tick)
}

// run sends one immediate heartbeat (registration) and then beats every
// interval until ctx is cancelled.
func (m *clusterMember) run(ctx context.Context, srv *serve.Server) {
	if m.client == nil {
		m.client = &http.Client{Timeout: m.every}
	}
	m.beat(ctx, srv)
	t := time.NewTicker(m.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.beat(ctx, srv)
		}
	}
}

func (m *clusterMember) beat(ctx context.Context, srv *serve.Server) {
	snap := srv.Snapshot()
	info := snap.Info()
	hb := cluster.Heartbeat{
		Node:             m.node,
		Addr:             m.addr,
		Shard:            m.spec.shard,
		Shards:           m.spec.shards,
		Generation:       info.Generation,
		AgeSeconds:       snap.Age().Seconds(),
		FreshnessSeconds: snap.Freshness().Seconds(),
		Rules:            info.Rules,
		SourceKind:       info.SourceKind,
	}
	if m.roleFn != nil {
		hb.IngestRole, hb.ReplLagSegments = m.roleFn()
	}
	err := m.post(ctx, hb)
	switch {
	case err != nil && !m.failing:
		m.failing = true
		m.logf("cluster: heartbeat to %s failed: %v", m.join, err)
	case err == nil && m.failing:
		m.failing = false
		m.logf("cluster: heartbeat to %s recovered", m.join)
	}
}

func (m *clusterMember) post(ctx context.Context, hb cluster.Heartbeat) error {
	body, err := json.Marshal(hb)
	if err != nil {
		return err
	}
	hctx, cancel := context.WithTimeout(ctx, m.every)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodPost,
		m.join+"/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("router answered HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

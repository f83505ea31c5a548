// Package cluster is the fault-tolerant coordination layer that scales the
// single-process rule daemon out into a sharded, replicated fleet: negmined
// nodes register with a router and heartbeat their shard identity, snapshot
// generation and load state; the router (cmd/negrouter) maintains a
// health-checked shard pool and fans POST /score and GET /rules out across
// the shards, merging the per-shard ranked results into a response that is
// byte-identical to what one unsharded daemon would have served. The merge
// never parses a reply: shards answer the router with frames
// (internal/ruleframe) that carry each rule's merge key beside its rendered
// JSON, and the router splices the bytes in serving order (merge.go).
//
// The router talks to the shards over HTTP/1.1 keep-alive connections it
// pools itself (shardconn.go). A routed read writes every shard's request,
// then reads each reply in shard order, all on the handler's goroutine, so
// it costs one socket round trip per shard and starts no goroutine.
//
// # Sharding contract
//
// Rules are partitioned by antecedent item: a rule belongs to the shard of
// its lexicographically-first antecedent item (ShardOfAntecedent). The
// assignment is a pure function of the rule and the shard count, so every
// producer filtering a snapshot (serve.Meta.Keep) computes the same mapping
// with no coordination. Both read endpoints fan out to every shard:
// /rules?item=X because X may sit on any rule's consequent, /score because
// a triggered rule's antecedent is a subset of the basket's ancestor
// closure, not of the basket, so its owning shard may be that of a category
// the router (which holds no taxonomy) cannot derive. ShardsForBasket, the
// shards of the basket's own items, is therefore a lower bound on where
// triggered rules live and never the routing set.
//
// # Failure model
//
// Robustness is the point of the package, in the same spirit as the paper's
// Partition guarantee (per-shard results stay exact over disjoint data, so
// a partial answer is still a correct answer over the shards that remain):
//
//   - Every replica keeps one failure ledger that drives the states healthy
//     → suspect → down, fed by heartbeats, request outcomes and /healthz
//     probes (Pool). DownAfter failures in a row take a replica down for a
//     back-off that doubles each time it fails again on coming back.
//   - A routed request's shard traffic runs under one deadline, with
//     budgeted retries against sibling replicas (Router). A slow replica
//     runs into the deadline, which counts as a failure like any other; a
//     reply read after an earlier shard used the time up still gets a short
//     grace, so a slow shard costs only itself.
//   - A shard with no usable replica degrades the response instead of
//     failing it: the router answers 206 with "partial": true and the
//     missing shard ids, never a 5xx.
//
// The cluster.* failpoints below make every one of those paths reproducible
// on demand (see internal/fault).
package cluster

import (
	"hash/fnv"
	"sync"
	"time"
)

// Failpoints (see internal/fault). All are no-ops unless armed by a test or
// NEGMINE_FAULTS.
const (
	// PointHeartbeat fires on every heartbeat the router ingests; an error
	// action models lost or rejected heartbeats (a healthy node that the
	// router slowly stops trusting), a sleep action a slow intake path.
	PointHeartbeat = "cluster.heartbeat"

	// PointDial fires before every proxied shard request (first attempts
	// and retries alike); an error action models an unreachable
	// replica and must drive the retry → down → partial-response chain,
	// never a router 5xx.
	PointDial = "cluster.dial"

	// PointMerge fires at the top of every fan-out result merge; an error
	// action models a merge bug and is the one cluster failure that is
	// allowed to surface as a router 500 (it is the router's own fault, not
	// a shard's).
	PointMerge = "cluster.merge"

	// PointPromote fires when a standby decides to promote itself (lease
	// expiry or manual trigger), before any epoch is bumped; an error action
	// models a promotion that cannot proceed yet and must be retried, never
	// a half-promoted node.
	PointPromote = "cluster.promote"
)

// ShardOfItem maps an item name to its owning shard in [0, shards).
// The hash is FNV-1a, pinned here as the cross-process contract: producers
// filtering snapshots and routers routing queries must agree byte-for-byte.
func ShardOfItem(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// ShardOfAntecedent maps a rule to its owning shard: the shard of the
// lexicographically-first antecedent item. Serving-layer entries carry
// their sides pre-sorted, but the minimum is computed defensively so the
// assignment never depends on caller ordering.
func ShardOfAntecedent(antecedent []string, shards int) int {
	if len(antecedent) == 0 || shards <= 1 {
		return 0
	}
	min := antecedent[0]
	for _, name := range antecedent[1:] {
		if name < min {
			min = name
		}
	}
	return ShardOfItem(min, shards)
}

// ShardsForBasket returns the sorted, de-duplicated shards of the basket's
// own items. Rules triggered through an ancestor of a basket item may live
// on other shards, so this is not the set /score must query (the router
// queries every shard). Nothing in this module calls it; it stays for the
// benchmark harness, which reports it as cluster.shards_per_score.
func ShardsForBasket(basket []string, shards int) []int {
	if shards <= 1 {
		return []int{0}
	}
	seen := make([]bool, shards)
	out := make([]int, 0, len(basket))
	for _, name := range basket {
		seen[ShardOfItem(name, shards)] = true
	}
	for id, hit := range seen {
		if hit {
			out = append(out, id)
		}
	}
	return out
}

// Heartbeat is the payload a negmined node POSTs to the router's
// /cluster/heartbeat endpoint. The first heartbeat registers the node; every
// later one refreshes its liveness and advertises what it is serving, so the
// router can prefer fresher, less-loaded replicas.
type Heartbeat struct {
	Node  string `json:"node"`  // node identity (negmined -node-id)
	Addr  string `json:"addr"`  // host:port the router should dial
	Shard int    `json:"shard"` // shard this node serves, in [0, shards)
	// Shards is the node's view of the cluster width; the router rejects a
	// heartbeat whose width disagrees with its own -shards so a misconfigured
	// node cannot silently serve a differently-partitioned rule set.
	Shards     int     `json:"shards"`
	Generation uint64  `json:"generation"`         // snapshot generation being served
	AgeSeconds float64 `json:"snapshotAgeSeconds"` // staleness of the served snapshot
	// FreshnessSeconds is the node's rule freshness: now minus the newest
	// ingested transaction visible in its served snapshot (equals the
	// snapshot age on nodes without an ingest watermark — same clock).
	FreshnessSeconds float64 `json:"freshnessSeconds"`
	Rules            int     `json:"rules"`                // rules in the served snapshot
	SourceKind       string  `json:"sourceKind,omitempty"` // mined | json | ingest | mmap
	// Degraded is sent only by older nodes, whose admission had a degraded
	// mode; nothing reads it. It stays because the router refuses unknown
	// heartbeat fields, so deleting it would stop those nodes heartbeating.
	Degraded bool `json:"degraded,omitempty"`
	// IngestRole is the node's write-path role: "primary" (accepts
	// /ingest), "standby" (replicating, promotable), "fenced" (deposed
	// primary, rejecting writes), or "replica" (read-only serving node).
	// Empty on heartbeats from pre-HA nodes.
	IngestRole string `json:"ingestRole,omitempty"`
	// ReplLagSegments is how many sealed segments the node's copy of the
	// ingest log trails the primary's (standby only; 0 when caught up).
	ReplLagSegments int `json:"replLagSegments,omitempty"`
}

// nowFunc is the clock the pool runs on; injectable for deterministic tests.
type nowFunc func() time.Time

// Lease is the standby's failure detector on its primary: every successful
// contact renews it, and once TTL elapses with no renewal the holder may
// act (promote). It is a plain deadline, not a distributed lease — the
// fencing epoch in the seglog manifest is what makes a mistaken promotion
// safe. Safe for concurrent use; the zero value is unusable, see NewLease.
type Lease struct {
	ttl time.Duration
	now nowFunc

	mu   sync.Mutex
	last time.Time
}

// NewLease returns a lease with the given TTL, freshly renewed. A nil now
// uses the wall clock.
func NewLease(ttl time.Duration, now nowFunc) *Lease {
	if now == nil {
		now = time.Now
	}
	return &Lease{ttl: ttl, now: now, last: now()}
}

// Renew marks a successful primary contact.
func (l *Lease) Renew() {
	l.mu.Lock()
	l.last = l.now()
	l.mu.Unlock()
}

// Expired reports whether the TTL has elapsed since the last renewal.
func (l *Lease) Expired() bool {
	return l.SinceRenewal() > l.ttl
}

// SinceRenewal returns how long ago the lease was last renewed.
func (l *Lease) SinceRenewal() time.Duration {
	l.mu.Lock()
	last := l.last
	l.mu.Unlock()
	return l.now().Sub(last)
}

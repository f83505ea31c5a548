package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"negmine/internal/fault"
)

// State is one replica's position in the health state machine. The order
// is the routing preference: Pick takes the lowest state first.
type State int

const (
	// Healthy replicas heartbeat on time and have not failed since their
	// last heartbeat, probe or request success; they are the first choice
	// for routing.
	Healthy State = iota
	// Suspect replicas missed a heartbeat, or failed a request or probe
	// since their last liveness signal; they are still routable (last
	// choice).
	Suspect
	// Down replicas failed DownAfter times in a row, or let their heartbeat
	// expire; they receive no traffic.
	Down
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// maxBackoff caps a down replica's back-off, in probe intervals.
const maxBackoff = 16

// forgetAfter is how long, in heartbeat TTLs, a replica may go without a
// heartbeat or a probe success before the sweep forgets it: a shard
// restarted on a new port must not leave its old address dialed forever.
const forgetAfter = 10

// PoolConfig tunes the shard pool. The zero value of every field falls back
// to the default documented on it; Shards is required.
type PoolConfig struct {
	// Shards is the cluster width: shard ids run [0, Shards).
	Shards int
	// HeartbeatTTL is how stale a replica's heartbeat may grow before the
	// sweep demotes it to suspect; at 2×TTL it goes down (default 3s).
	HeartbeatTTL time.Duration
	// ProbeInterval is the probe/sweep cadence and a down replica's first
	// back-off (default 500ms).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive request/probe failures take a
	// replica down (default 3).
	DownAfter int
	// Probe checks one replica's health (default: GET /healthz). It must
	// honor ctx.
	Probe func(ctx context.Context, addr string) error
	// Now is the pool's clock (default time.Now); injectable for tests.
	Now func() time.Time
	// Logf receives state-transition logs (default: discard).
	Logf func(format string, args ...any)
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 3 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// replica is one registered node's pool entry. All fields are guarded by
// the pool mutex.
type replica struct {
	node  string
	addr  string
	shard int

	state     State
	lastBeat  time.Time // last accepted heartbeat
	lastAlive time.Time // last heartbeat or probe success

	// The failure ledger. Only a request success clears it: a replica a
	// probe or heartbeat brings back still carries its failures, so one
	// more failure takes it down again, for twice as long.
	fails     int           // consecutive request/probe failures
	backoff   time.Duration // how long the last failure-driven down lasts
	downUntil time.Time     // no probe or heartbeat brings r back before this
	probing   bool          // an async probe is in flight

	// Advertised serving state, from the last heartbeat.
	generation uint64
	ageSeconds float64
	freshness  float64
	rules      int
	sourceKind string
	ingestRole string
	replLag    int

	// Counters for /cluster/status and /metrics.
	requests int64
	failures int64
	rr       int64 // round-robin tiebreaker
}

// Pool is the router's health-checked replica registry: every registered
// node, grouped by shard, with its health state, failure ledger and
// advertised snapshot freshness. All methods are safe for concurrent use.
type Pool struct {
	cfg PoolConfig

	mu       sync.Mutex
	replicas map[string]*replica // by node id
	byShard  [][]*replica
	rrSeq    int64

	heartbeats    int64 // accepted heartbeats
	heartbeatErrs int64 // rejected heartbeats (bad shard, failpoint)
}

// NewPool builds an empty pool for a cluster of cfg.Shards shards.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:      cfg,
		replicas: map[string]*replica{},
		byShard:  make([][]*replica, cfg.Shards),
	}
}

// Shards returns the cluster width.
func (p *Pool) Shards() int { return p.cfg.Shards }

// Heartbeat ingests one node heartbeat: the first registers the replica,
// later ones refresh liveness and advertised state. A heartbeat brings a
// down replica back once its back-off has passed.
func (p *Pool) Heartbeat(hb Heartbeat) error {
	if err := fault.Hit(PointHeartbeat); err != nil {
		p.mu.Lock()
		p.heartbeatErrs++
		p.mu.Unlock()
		return err
	}
	if hb.Node == "" || hb.Addr == "" {
		return fmt.Errorf("cluster: heartbeat missing node or addr")
	}
	if hb.Shard < 0 || hb.Shard >= p.cfg.Shards {
		p.mu.Lock()
		p.heartbeatErrs++
		p.mu.Unlock()
		return fmt.Errorf("cluster: heartbeat shard %d out of range [0,%d)", hb.Shard, p.cfg.Shards)
	}
	if hb.Shards != 0 && hb.Shards != p.cfg.Shards {
		p.mu.Lock()
		p.heartbeatErrs++
		p.mu.Unlock()
		return fmt.Errorf("cluster: heartbeat claims %d shards, router runs %d", hb.Shards, p.cfg.Shards)
	}
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heartbeats++
	r := p.replicas[hb.Node]
	if r == nil {
		r = &replica{node: hb.Node, state: Healthy, shard: hb.Shard}
		p.replicas[hb.Node] = r
		p.byShard[hb.Shard] = append(p.byShard[hb.Shard], r)
		p.cfg.Logf("cluster: shard %d replica %s registered (%s)", hb.Shard, hb.Node, hb.Addr)
	} else if r.shard != hb.Shard {
		// A node restarted with a different shard assignment: move it.
		p.byShard[r.shard] = removeReplica(p.byShard[r.shard], r)
		r.shard = hb.Shard
		p.byShard[hb.Shard] = append(p.byShard[hb.Shard], r)
	}
	r.addr = hb.Addr
	r.lastBeat = now
	r.generation = hb.Generation
	r.ageSeconds = hb.AgeSeconds
	r.freshness = hb.FreshnessSeconds
	r.rules = hb.Rules
	r.sourceKind = hb.SourceKind
	r.ingestRole = hb.IngestRole
	r.replLag = hb.ReplLagSegments
	p.alive(r, now, "heartbeat")
	return nil
}

func removeReplica(rs []*replica, r *replica) []*replica {
	out := rs[:0]
	for _, x := range rs {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}

// transition moves r to state and logs the edge. Called with p.mu held.
func (p *Pool) transition(r *replica, s State, why string) {
	if r.state == s {
		return
	}
	p.cfg.Logf("cluster: shard %d replica %s %s → %s (%s)", r.shard, r.node, r.state, s, why)
	r.state = s
}

// alive applies a liveness signal, a heartbeat or a probe success: a down
// replica whose back-off has passed comes back, and a suspect one turns
// healthy unless its heartbeat is late. The replica keeps its failures, so
// it is routed beside its siblings until its next request settles the
// ledger: a success clears it, a failure counts on toward DownAfter (and
// takes a replica back from down down again at once, for twice as long).
// Called with p.mu held.
func (p *Pool) alive(r *replica, now time.Time, why string) {
	r.lastAlive = now
	switch {
	case r.state == Down && now.Before(r.downUntil):
	case now.Sub(r.lastBeat) > p.cfg.HeartbeatTTL:
		p.transition(r, Suspect, why)
	default:
		p.transition(r, Healthy, why)
	}
}

// fail records one failed request or probe; the DownAfter-th in a row takes
// r down. Called with p.mu held.
func (p *Pool) fail(r *replica, now time.Time, why string) {
	r.fails++
	switch {
	case r.state == Down:
	case r.fails >= p.cfg.DownAfter:
		// Down for ProbeInterval the first time, and for twice as long each
		// time r goes down again with no request success in between.
		r.backoff = min(max(2*r.backoff, p.cfg.ProbeInterval), maxBackoff*p.cfg.ProbeInterval)
		r.downUntil = now.Add(r.backoff)
		p.transition(r, Down, fmt.Sprintf("%s, for %v", why, r.backoff))
	default:
		p.transition(r, Suspect, why)
	}
}

// ReportSuccess records a successful proxied request to node: it clears
// the replica's failure ledger.
func (p *Pool) ReportSuccess(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.replicas[node]
	if r == nil {
		return
	}
	r.requests++
	r.fails, r.backoff = 0, 0
	if r.state == Suspect {
		p.transition(r, Healthy, "request ok")
	}
}

// ReportFailure records a failed proxied request to node.
func (p *Pool) ReportFailure(node string) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.replicas[node]
	if r == nil {
		return
	}
	r.requests++
	r.failures++
	p.fail(r, now, "request failed")
}

// Sweep advances time-driven transitions: heartbeats older than the TTL
// demote a replica to suspect, older than twice the TTL take it down (with
// no back-off of its own: the next heartbeat or probe brings it back). A
// replica with neither a heartbeat nor a probe success for forgetAfter
// TTLs is forgotten; its next heartbeat, if any, registers it afresh.
// Exposed so tests can drive the state machine with a fake clock; Run calls
// it every probe interval.
func (p *Pool) Sweep(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for node, r := range p.replicas {
		if silent := now.Sub(r.lastAlive); silent > forgetAfter*p.cfg.HeartbeatTTL {
			delete(p.replicas, node)
			p.byShard[r.shard] = removeReplica(p.byShard[r.shard], r)
			p.cfg.Logf("cluster: shard %d replica %s forgotten (silent for %v)", r.shard, node, silent)
			continue
		}
		age := now.Sub(r.lastBeat)
		switch {
		case age > 2*p.cfg.HeartbeatTTL:
			p.transition(r, Down, "heartbeat expired")
		case age > p.cfg.HeartbeatTTL && r.state == Healthy:
			p.transition(r, Suspect, "heartbeat late")
		}
	}
}

// dueProbes returns the replicas to probe now, marking them in-flight:
// every suspect replica, and every down one whose back-off has passed.
func (p *Pool) dueProbes(now time.Time) []*replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	var due []*replica
	for _, r := range p.replicas {
		if r.probing || r.state == Healthy || now.Before(r.downUntil) {
			continue
		}
		r.probing = true
		due = append(due, r)
	}
	return due
}

// ProbeOnce sweeps and fires one round of due health probes, waiting for
// them to finish. Exposed for deterministic tests; Router.Run calls it
// every probe interval.
func (p *Pool) ProbeOnce(ctx context.Context) {
	now := p.cfg.Now()
	p.Sweep(now)
	probe := p.cfg.Probe
	if probe == nil {
		probe = p.httpProbe
	}
	due := p.dueProbes(now)
	var wg sync.WaitGroup
	for _, r := range due {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			p.mu.Lock()
			addr := r.addr
			p.mu.Unlock()
			pctx, cancel := context.WithTimeout(ctx, p.cfg.ProbeInterval)
			err := probe(pctx, addr)
			cancel()
			p.recordProbe(r, err)
		}(r)
	}
	wg.Wait()
}

// httpProbe is the default health probe: GET /healthz, any 2xx is alive.
// It runs off the request path, only against down and suspect replicas,
// and dials fresh every time, so a probe tests the replica's listener and
// not a connection the router happens to hold.
var probeClient = &http.Client{Transport: &http.Transport{
	DialContext:       (&net.Dialer{Timeout: dialTimeout}).DialContext,
	DisableKeepAlives: true,
}}

func (p *Pool) httpProbe(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: probe %s: HTTP %d", addr, resp.StatusCode)
	}
	return nil
}

// recordProbe applies one probe outcome to r.
func (p *Pool) recordProbe(r *replica, err error) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	r.probing = false
	if err != nil {
		p.fail(r, now, "probe failed")
	} else {
		p.alive(r, now, "probe ok")
	}
}

// Pick selects the best routable replica of shard, skipping the node ids in
// tried (earlier attempts of the same request) and down replicas.
// Preference: healthiest state first, then freshest snapshot (highest
// generation, lowest age), round-robin across equals. Returns ("", "") when
// the shard has no routable replica — the partial-response path.
func (p *Pool) Pick(shard int, tried []string) (node, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if shard < 0 || shard >= len(p.byShard) {
		return "", ""
	}
	var best *replica
	for _, r := range p.byShard[shard] {
		if slices.Contains(tried, r.node) || r.state == Down {
			continue
		}
		if best == nil || p.better(r, best) {
			best = r
		}
	}
	if best == nil {
		return "", ""
	}
	p.rrSeq++
	best.rr = p.rrSeq
	return best.node, best.addr
}

// PickIngestPrimary selects the replica to forward a write to: the one
// whose latest heartbeat advertises the "primary" ingest role, skipping
// down replicas and the node ids in tried. When several
// qualify (a failover just moved the role), the freshest heartbeat wins —
// it reflects the newest role assignment. Returns ok=false when no primary
// is currently known, the write-unavailable (503) path.
func (p *Pool) PickIngestPrimary(tried []string) (node, addr string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *replica
	for _, r := range p.replicas {
		if r.ingestRole != "primary" || slices.Contains(tried, r.node) || r.state == Down {
			continue
		}
		if best == nil || r.lastBeat.After(best.lastBeat) {
			best = r
		}
	}
	if best == nil {
		return "", "", false
	}
	return best.node, best.addr, true
}

// IngestTopology summarizes the write path for /healthz: the advertised
// primary (empty when none) and how many standbys are registered and alive.
func (p *Pool) IngestTopology() (primary string, standbys int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var freshest time.Time
	for _, r := range p.replicas {
		switch r.ingestRole {
		case "primary":
			if r.state != Down && r.lastBeat.After(freshest) {
				primary, freshest = r.node, r.lastBeat
			}
		case "standby":
			if r.state != Down {
				standbys++
			}
		}
	}
	return primary, standbys
}

// better reports whether a should be preferred over b. Called with p.mu held.
func (p *Pool) better(a, b *replica) bool {
	if a.state != b.state {
		return a.state < b.state
	}
	if a.generation != b.generation {
		return a.generation > b.generation
	}
	if a.ageSeconds != b.ageSeconds {
		return a.ageSeconds < b.ageSeconds
	}
	// Round-robin: least-recently-picked first.
	return a.rr < b.rr
}

// ReplicaStatus is one replica's row in the /cluster/status document.
type ReplicaStatus struct {
	Node             string  `json:"node"`
	Addr             string  `json:"addr"`
	State            string  `json:"state"`
	Generation       uint64  `json:"generation"`
	AgeSeconds       float64 `json:"snapshotAgeSeconds"`
	FreshnessSeconds float64 `json:"freshnessSeconds"`
	Rules            int     `json:"rules"`
	SourceKind       string  `json:"sourceKind,omitempty"`
	IngestRole       string  `json:"ingestRole,omitempty"`
	ReplLagSegments  int     `json:"replLagSegments,omitempty"`
	LastHeartbeatAgo float64 `json:"lastHeartbeatAgoSeconds"`
	Failures         int64   `json:"failures"`
	Requests         int64   `json:"requests"`
}

// ShardStatus is one shard's row in the /cluster/status document.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Routable bool            `json:"routable"` // at least one non-down replica
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status is the /cluster/status document: the router's full view of the
// fleet, consumed by `nmtx cluster status` and the chaos tests.
type Status struct {
	Shards        int           `json:"shards"`
	Routable      int           `json:"routableShards"`
	Registered    int           `json:"registeredReplicas"`
	Heartbeats    int64         `json:"heartbeats"`
	HeartbeatErrs int64         `json:"heartbeatErrors,omitempty"`
	Table         []ShardStatus `json:"table"`
}

// Status snapshots the pool.
func (p *Pool) Status() Status {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	doc := Status{
		Shards:        p.cfg.Shards,
		Registered:    len(p.replicas),
		Heartbeats:    p.heartbeats,
		HeartbeatErrs: p.heartbeatErrs,
		Table:         make([]ShardStatus, p.cfg.Shards),
	}
	for shard := range p.byShard {
		row := ShardStatus{Shard: shard, Replicas: []ReplicaStatus{}}
		for _, r := range p.byShard[shard] {
			rs := ReplicaStatus{
				Node:             r.node,
				Addr:             r.addr,
				State:            r.state.String(),
				Generation:       r.generation,
				AgeSeconds:       r.ageSeconds,
				FreshnessSeconds: r.freshness,
				Rules:            r.rules,
				SourceKind:       r.sourceKind,
				IngestRole:       r.ingestRole,
				ReplLagSegments:  r.replLag,
				Failures:         r.failures,
				Requests:         r.requests,
			}
			if !r.lastBeat.IsZero() {
				rs.LastHeartbeatAgo = now.Sub(r.lastBeat).Seconds()
			}
			if r.state != Down {
				row.Routable = true
			}
			row.Replicas = append(row.Replicas, rs)
		}
		sort.Slice(row.Replicas, func(i, j int) bool { return row.Replicas[i].Node < row.Replicas[j].Node })
		if row.Routable {
			doc.Routable++
		}
		doc.Table[shard] = row
	}
	return doc
}

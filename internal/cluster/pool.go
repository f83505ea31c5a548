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

// State is one replica's position in the health state machine.
type State int

const (
	// Healthy replicas heartbeat on time and answer requests; they are the
	// first choice for routing.
	Healthy State = iota
	// Suspect replicas missed a heartbeat or failed a request; they are
	// still routable (last choice) while probes decide their fate.
	Suspect
	// Down replicas failed repeatedly or let their heartbeat expire; they
	// receive no traffic and are probed with exponential backoff.
	Down
	// Recovering replicas answered a probe (or heartbeat) after being down;
	// one more success promotes them back to healthy. They are routable so
	// a recovered shard starts taking traffic within one probe interval.
	Recovering
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// PoolConfig tunes the shard pool. The zero value of every field falls back
// to the default documented on it; Shards is required.
type PoolConfig struct {
	// Shards is the cluster width: shard ids run [0, Shards).
	Shards int
	// HeartbeatTTL is how stale a replica's heartbeat may grow before the
	// sweep demotes it to suspect; at 2×TTL it goes down (default 3s).
	HeartbeatTTL time.Duration
	// ProbeInterval is the base probe/sweep cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the exponential probe backoff for down replicas
	// (default 16×ProbeInterval).
	ProbeBackoffMax time.Duration
	// DownAfter is how many consecutive request/probe failures take a
	// replica from suspect to down (default 3).
	DownAfter int
	// BreakerAfter is how many consecutive request failures open a
	// replica's circuit breaker (default 3, like the serve watch breaker).
	BreakerAfter int
	// BreakerMax caps the breaker's exponential cool-down (default
	// 16×ProbeInterval).
	BreakerMax time.Duration
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
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 16 * c.ProbeInterval
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.BreakerAfter <= 0 {
		c.BreakerAfter = 3
	}
	if c.BreakerMax <= 0 {
		c.BreakerMax = 16 * c.ProbeInterval
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

	state    State
	fails    int       // consecutive request/probe failures
	okStreak int       // consecutive successes while recovering
	lastBeat time.Time // last accepted heartbeat

	// Advertised serving state, from the last heartbeat.
	generation uint64
	ageSeconds float64
	freshness  float64
	rules      int
	sourceKind string
	ingestRole string
	replLag    int

	// Probe scheduling (down/suspect replicas only).
	nextProbe    time.Time
	probeBackoff time.Duration
	probing      bool // an async probe is in flight

	// Circuit breaker: consecutive failures open it; while open the replica
	// is skipped until openUntil, when one trial request is let through.
	brFails     int
	brOpenUntil time.Time
	brBackoff   time.Duration
	brOpens     int64

	// Counters for /cluster/status and /metrics.
	requests int64
	failures int64
	rr       int64 // round-robin tiebreaker
}

// breakerOpen reports whether the breaker currently blocks the replica.
func (r *replica) breakerOpen(now time.Time) bool {
	return r.brFails >= 1 && now.Before(r.brOpenUntil)
}

// Pool is the router's health-checked replica registry: every registered
// node, grouped by shard, with its health state, breaker, and advertised
// snapshot freshness. All methods are safe for concurrent use.
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
// later ones refresh liveness and advertised state. A heartbeat from a down
// replica starts recovery; from a recovering one, completes it.
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
	switch r.state {
	case Down:
		p.transition(r, Recovering, "heartbeat after down")
		r.okStreak = 1
	case Recovering:
		r.okStreak++
		if r.okStreak >= 2 {
			p.promote(r, "heartbeat")
		}
	case Suspect:
		// A heartbeat proves the process is alive, but only request/probe
		// success clears the failure streak that made it suspect.
		if r.fails == 0 {
			p.transition(r, Healthy, "heartbeat")
		}
	}
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

// promote returns r to healthy and resets every failure ledger. Called with
// p.mu held.
func (p *Pool) promote(r *replica, why string) {
	p.transition(r, Healthy, why)
	r.fails = 0
	r.okStreak = 0
	r.brFails = 0
	r.brBackoff = 0
	r.probeBackoff = 0
}

// ReportSuccess records a successful proxied request to node.
func (p *Pool) ReportSuccess(node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.replicas[node]
	if r == nil {
		return
	}
	r.requests++
	r.fails = 0
	r.brFails = 0
	r.brBackoff = 0
	switch r.state {
	case Suspect:
		p.transition(r, Healthy, "request ok")
	case Recovering:
		p.promote(r, "request ok")
	case Down:
		// A request reached a down replica only as a breaker trial; treat
		// success like a probe success.
		p.transition(r, Recovering, "request ok")
		r.okStreak = 1
	}
}

// ReportFailure records a failed proxied request to node: it advances the
// health state machine (healthy → suspect → down) and the circuit breaker.
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
	r.fails++
	r.okStreak = 0
	switch {
	case r.state == Healthy || r.state == Recovering:
		p.transition(r, Suspect, "request failed")
	case r.state == Suspect && r.fails >= p.cfg.DownAfter:
		p.markDown(r, now, "request failures")
	}
	// Breaker: consecutive failures open it with exponential cool-down.
	r.brFails++
	if r.brFails >= p.cfg.BreakerAfter {
		if r.brBackoff == 0 {
			r.brBackoff = p.cfg.ProbeInterval
		} else if !now.Before(r.brOpenUntil) {
			// The trial request after a cool-down failed: back off further.
			r.brBackoff *= 2
			if r.brBackoff > p.cfg.BreakerMax {
				r.brBackoff = p.cfg.BreakerMax
			}
		}
		if !r.breakerOpen(now) {
			r.brOpens++
			p.cfg.Logf("cluster: shard %d replica %s breaker open for %v", r.shard, r.node, r.brBackoff)
		}
		r.brOpenUntil = now.Add(r.brBackoff)
	}
}

// markDown demotes r to down and schedules its first recovery probe.
// Called with p.mu held.
func (p *Pool) markDown(r *replica, now time.Time, why string) {
	p.transition(r, Down, why)
	r.probeBackoff = p.cfg.ProbeInterval
	r.nextProbe = now // probe immediately on the next sweep
}

// Sweep advances time-driven transitions: heartbeats older than the TTL
// demote a replica to suspect, older than twice the TTL to down. Exposed so
// tests can drive the state machine with a fake clock; Run calls it every
// probe interval.
func (p *Pool) Sweep(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.lastBeat.IsZero() {
			continue
		}
		age := now.Sub(r.lastBeat)
		switch {
		case age > 2*p.cfg.HeartbeatTTL && r.state != Down:
			p.markDown(r, now, "heartbeat expired")
		case age > p.cfg.HeartbeatTTL && r.state == Healthy:
			p.transition(r, Suspect, "heartbeat late")
		}
	}
}

// dueProbes returns the replicas whose next probe is due, marking them
// in-flight.
func (p *Pool) dueProbes(now time.Time) []*replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	var due []*replica
	for _, r := range p.replicas {
		if r.state != Down && r.state != Suspect && r.state != Recovering {
			continue
		}
		if r.probing || now.Before(r.nextProbe) {
			continue
		}
		r.probing = true
		due = append(due, r)
	}
	return due
}

// ProbeOnce sweeps and fires one round of due health probes, waiting for
// them to finish. Exposed for deterministic tests; Router.Run wraps it in a
// ticker.
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

// recordProbe applies one probe outcome to r's state machine.
func (p *Pool) recordProbe(r *replica, err error) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	r.probing = false
	if err != nil {
		r.fails++
		r.okStreak = 0
		if r.state == Suspect && r.fails >= p.cfg.DownAfter {
			p.markDown(r, now, "probe failures")
		}
		// Exponential backoff: a dead replica is probed less and less often.
		if r.probeBackoff == 0 {
			r.probeBackoff = p.cfg.ProbeInterval
		} else {
			r.probeBackoff *= 2
			if r.probeBackoff > p.cfg.ProbeBackoffMax {
				r.probeBackoff = p.cfg.ProbeBackoffMax
			}
		}
		r.nextProbe = now.Add(r.probeBackoff)
		return
	}
	r.fails = 0
	r.probeBackoff = p.cfg.ProbeInterval
	r.nextProbe = now.Add(p.cfg.ProbeInterval)
	switch r.state {
	case Down:
		p.transition(r, Recovering, "probe ok")
		r.okStreak = 1
	case Recovering:
		r.okStreak++
		if r.okStreak >= 2 {
			p.promote(r, "probe ok")
		}
	case Suspect:
		p.transition(r, Healthy, "probe ok")
	}
}

// Pick selects the best routable replica of shard, skipping the node ids in
// tried (earlier attempts of the same request) and replicas whose breaker is
// open. Preference: healthiest state first, then freshest snapshot (highest
// generation, lowest age), round-robin across equals. Returns ("", "") when
// the shard has no routable replica — the partial-response path.
func (p *Pool) Pick(shard int, tried []string) (node, addr string) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if shard < 0 || shard >= len(p.byShard) {
		return "", ""
	}
	var best *replica
	for _, r := range p.byShard[shard] {
		if slices.Contains(tried, r.node) || r.state == Down || r.breakerOpen(now) {
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
// down replicas, open breakers, and the node ids in tried. When several
// qualify (a failover just moved the role), the freshest heartbeat wins —
// it reflects the newest role assignment. Returns ok=false when no primary
// is currently known, the write-unavailable (503) path.
func (p *Pool) PickIngestPrimary(tried []string) (node, addr string, ok bool) {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *replica
	for _, r := range p.replicas {
		if r.ingestRole != "primary" || slices.Contains(tried, r.node) || r.state == Down || r.breakerOpen(now) {
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
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var freshest time.Time
	for _, r := range p.replicas {
		switch r.ingestRole {
		case "primary":
			if r.state != Down && !r.breakerOpen(now) && r.lastBeat.After(freshest) {
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
	if ra, rb := stateRank(a.state), stateRank(b.state); ra != rb {
		return ra < rb
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

// stateRank orders states by routing preference.
func stateRank(s State) int {
	switch s {
	case Healthy:
		return 0
	case Recovering:
		return 1
	case Suspect:
		return 2
	default:
		return 3
	}
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
	BreakerOpen      bool    `json:"breakerOpen"`
	BreakerOpens     int64   `json:"breakerOpens"`
}

// ShardStatus is one shard's row in the /cluster/status document.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Routable bool            `json:"routable"` // at least one non-down, breaker-closed replica
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
				BreakerOpen:      r.breakerOpen(now),
				BreakerOpens:     r.brOpens,
			}
			if !r.lastBeat.IsZero() {
				rs.LastHeartbeatAgo = now.Sub(r.lastBeat).Seconds()
			}
			if r.state != Down && !r.breakerOpen(now) {
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

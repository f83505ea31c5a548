package serve

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"

	"negmine/internal/govern"
	"negmine/internal/metrics"
)

// endpoint ids tracked by Metrics.
const (
	epRules = iota
	epScore
	epHealthz
	epMetrics
	epReload
	epIngest
	epOther
	epCount
)

var endpointNames = [epCount]string{"rules", "score", "healthz", "metrics", "reload", "ingest", "other"}

// Metrics aggregates the daemon's counters: per-endpoint request and error
// counts, per-endpoint latency histograms, and reload outcomes. Everything
// is lock-free (atomics) — the /metrics handler reads while request
// goroutines write. Hand-rolled expvar-style JSON, no external deps.
type Metrics struct {
	requests [epCount]atomic.Int64
	errors   [epCount]atomic.Int64 // responses with status ≥ 400
	latency  [epCount]metrics.Histogram

	reloadOK      atomic.Int64
	reloadFail    atomic.Int64
	lastReloadNs  atomic.Int64 // unix nanos of the last successful swap
	lastReloadErr atomic.Value // string; "" when the last reload succeeded

	panics atomic.Int64 // handler panics caught by the recovery middleware
	sheds  atomic.Int64 // 503s produced by admission control

	watchState      atomic.Value // string; "" until a watcher starts
	watchFails      atomic.Int64 // consecutive reload failures seen by the watcher
	watchIntervalNs atomic.Int64 // current poll interval

	// governStats, when non-nil, snapshots the admission controller for the
	// /metrics govern block. Set once at server construction, before any
	// handler runs.
	governStats func() govern.Stats

	// ingestStats, when non-nil, snapshots the ingest sink for the /metrics
	// ingest block. Set once at server construction, like governStats.
	ingestStats func() IngestStats

	// node is the cluster node identity (serve.WithNodeID), set once at
	// server construction, before any handler runs.
	node string

	start time.Time
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{start: time.Now()}
	m.lastReloadErr.Store("")
	m.watchState.Store("")
	return m
}

func (m *Metrics) observe(ep int, d time.Duration, status int) {
	if ep < 0 || ep >= epCount {
		ep = epOther
	}
	m.requests[ep].Add(1)
	if status >= 400 {
		m.errors[ep].Add(1)
	}
	m.latency[ep].Observe(d)
}

func (m *Metrics) recordReload(err error) {
	if err != nil {
		m.reloadFail.Add(1)
		m.lastReloadErr.Store(err.Error())
		return
	}
	m.reloadOK.Add(1)
	m.lastReloadErr.Store("")
	m.lastReloadNs.Store(time.Now().UnixNano())
}

// recordPanic counts a handler panic caught by the recovery middleware.
func (m *Metrics) recordPanic() { m.panics.Add(1) }

// Panics returns how many handler panics have been recovered.
func (m *Metrics) Panics() int64 { return m.panics.Load() }

// recordShed counts a request shed by admission control (a governed 503).
func (m *Metrics) recordShed() { m.sheds.Add(1) }

// Sheds returns how many requests admission control has shed.
func (m *Metrics) Sheds() int64 { return m.sheds.Load() }

// setWatch publishes the watcher's state machine (state name, consecutive
// failures, current poll interval) for /metrics.
func (m *Metrics) setWatch(state string, fails int, interval time.Duration) {
	m.watchState.Store(state)
	m.watchFails.Store(int64(fails))
	m.watchIntervalNs.Store(int64(interval))
}

// WatchState returns the watcher's current state ("" if no watcher runs).
func (m *Metrics) WatchState() string { return m.watchState.Load().(string) }

// watchJSON is the watcher state block of the /metrics document.
type watchJSON struct {
	State           string  `json:"state"`
	ConsecFailures  int64   `json:"consecutiveFailures"`
	IntervalSeconds float64 `json:"intervalSeconds"`
}

// endpointJSON is one endpoint's exported block.
type endpointJSON struct {
	Requests int64                 `json:"requests"`
	Errors   int64                 `json:"errors"`
	Latency  metrics.HistogramJSON `json:"latency"`
}

// metricsJSON is the full /metrics document.
type metricsJSON struct {
	UptimeSeconds float64                 `json:"uptimeSeconds"`
	Node          string                  `json:"node,omitempty"` // cluster node identity
	Panics        int64                   `json:"panics"`
	Endpoints     map[string]endpointJSON `json:"endpoints"`
	Reloads       struct {
		OK        int64   `json:"ok"`
		Failed    int64   `json:"failed"`
		LastError string  `json:"lastError,omitempty"`
		LastOKAgo float64 `json:"lastOkAgeSeconds,omitempty"`
	} `json:"reloads"`
	Watch    *watchJSON `json:"watch,omitempty"`
	Snapshot struct {
		SnapshotInfo
		// AgeSeconds is the scraper-stable staleness gauge: a growing value
		// means reloads (or the replica's snapshot store) have stalled and
		// the node serves stale rules.
		AgeSeconds float64 `json:"age_seconds"`
		// FreshnessSeconds is now minus the append time of the newest
		// ingested transaction visible in the served rules — the rule
		// freshness a client actually experiences. Without a watermark it
		// equals the snapshot age (same clock, see Snapshot.Freshness).
		FreshnessSeconds float64 `json:"freshness_seconds"`
		// Layout describes the arena + posting-list memory layout.
		Layout *LayoutInfo `json:"layout,omitempty"`
	} `json:"snapshot"`
	// Govern is the admission-controller block: AIMD window, queue depth,
	// degraded state and per-reason shed counters. Absent when no governor
	// is installed.
	Govern *governJSON `json:"govern,omitempty"`
	// Ingest is the segment-log block: segment counts, bytes, pending
	// transactions and last-refresh cost. Absent when ingest is disabled.
	Ingest *ingestJSON `json:"ingest,omitempty"`
}

// ingestJSON is the ingest block of the /metrics document: the sink's own
// counters plus the visible watermark, which is read from the *served*
// snapshot rather than the sink so that a failed reload keeping the old
// snapshot in place reports honestly.
type ingestJSON struct {
	IngestStats
	// VisibleWatermark is the last ingested TID whose effect is visible in
	// the served rules (0 until the first ingest-built snapshot).
	VisibleWatermark int64 `json:"visible_watermark"`
}

// CacheStats is a /metrics block no snapshot reports any more.
// Kept only because benchmark/serveread.go decodes into it; ROADMAP item 1 deletes it.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// governJSON is the admission block of the /metrics document.
type governJSON struct {
	govern.Stats
	ShedTotal int64 `json:"shedTotal"`
}

// WriteJSON renders the metrics (plus the current snapshot's info) as
// indented JSON.
func (m *Metrics) WriteJSON(w io.Writer, snap *Snapshot) error {
	var doc metricsJSON
	doc.UptimeSeconds = time.Since(m.start).Seconds()
	doc.Node = m.node
	doc.Endpoints = map[string]endpointJSON{}
	for ep := 0; ep < epCount; ep++ {
		if m.requests[ep].Load() == 0 {
			continue
		}
		doc.Endpoints[endpointNames[ep]] = endpointJSON{
			Requests: m.requests[ep].Load(),
			Errors:   m.errors[ep].Load(),
			Latency:  m.latency[ep].Export(true),
		}
	}
	doc.Panics = m.panics.Load()
	doc.Reloads.OK = m.reloadOK.Load()
	doc.Reloads.Failed = m.reloadFail.Load()
	doc.Reloads.LastError = m.lastReloadErr.Load().(string)
	if state := m.WatchState(); state != "" {
		doc.Watch = &watchJSON{
			State:           state,
			ConsecFailures:  m.watchFails.Load(),
			IntervalSeconds: time.Duration(m.watchIntervalNs.Load()).Seconds(),
		}
	}
	if ns := m.lastReloadNs.Load(); ns > 0 {
		doc.Reloads.LastOKAgo = time.Since(time.Unix(0, ns)).Seconds()
	}
	if snap != nil {
		doc.Snapshot.SnapshotInfo = snap.Info()
		doc.Snapshot.AgeSeconds = snap.Age().Seconds()
		doc.Snapshot.FreshnessSeconds = snap.Freshness().Seconds()
		layout := snap.Layout()
		doc.Snapshot.Layout = &layout
	}
	if m.governStats != nil {
		st := m.governStats()
		doc.Govern = &governJSON{Stats: st, ShedTotal: st.Shed()}
	}
	if m.ingestStats != nil {
		doc.Ingest = &ingestJSON{IngestStats: m.ingestStats()}
		if snap != nil {
			doc.Ingest.VisibleWatermark = snap.VisibleWatermark()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

package cluster

import (
	"sync/atomic"
	"time"

	"negmine/internal/metrics"
)

// Router endpoint ids tracked by routerMetrics.
const (
	repScore = iota
	repRules
	repIngest
	repStatus
	repHeartbeat
	repOther
	repCount
)

var repNames = [repCount]string{"score", "rules", "ingest", "status", "heartbeat", "other"}

// routerMetrics aggregates the router's counters. Everything is atomic: the
// /metrics handler reads while request goroutines write.
type routerMetrics struct {
	requests [repCount]atomic.Int64
	errors   [repCount]atomic.Int64
	latency  [repCount]metrics.Histogram

	attempts    atomic.Int64 // proxied shard requests, including retries/hedges
	retries     atomic.Int64 // failure-triggered re-dispatches
	retryDenied atomic.Int64 // retries the budget refused
	hedges      atomic.Int64 // latency-triggered duplicate dispatches
	hedgeWins   atomic.Int64 // responses won by a hedge/retry attempt
	partials    atomic.Int64 // degraded responses (206, partial:true)
	noReplica   atomic.Int64 // shard fan-outs that found no routable replica
	shardBytes  atomic.Int64 // response-body bytes read from shards, all attempts

	ingestForwarded atomic.Int64 // /ingest requests relayed to a primary
	ingestNoPrimary atomic.Int64 // /ingest requests that found no routable primary
	ingestRerouted  atomic.Int64 // /ingest attempts bounced (409/failure) onto another node

	start time.Time
}

func newRouterMetrics() *routerMetrics { return &routerMetrics{start: time.Now()} }

func (m *routerMetrics) observe(ep int, d time.Duration, status int) {
	if ep < 0 || ep >= repCount {
		ep = repOther
	}
	m.requests[ep].Add(1)
	if status >= 400 {
		m.errors[ep].Add(1)
	}
	m.latency[ep].Observe(d)
}

// routerMetricsJSON is the router /metrics document (the cluster-level
// counterpart of negmined's /metrics).
type routerMetricsJSON struct {
	UptimeSeconds float64                 `json:"uptimeSeconds"`
	Endpoints     map[string]endpointJSON `json:"endpoints"`
	Fanout        struct {
		Attempts    int64 `json:"attempts"`
		Retries     int64 `json:"retries"`
		RetryDenied int64 `json:"retryDenied"`
		Hedges      int64 `json:"hedges"`
		HedgeWins   int64 `json:"hedgeWins"`
		Partials    int64 `json:"partialResponses"`
		NoReplica   int64 `json:"noReplicaShardMisses"`
		ShardBytes  int64 `json:"shardBytesRead"`
	} `json:"fanout"`
	Ingest struct {
		Forwarded int64 `json:"forwarded"`
		NoPrimary int64 `json:"noPrimary"`
		Rerouted  int64 `json:"rerouted"`
	} `json:"ingest"`
	Cluster Status `json:"cluster"`
}

type endpointJSON struct {
	Requests int64                 `json:"requests"`
	Errors   int64                 `json:"errors"`
	Latency  metrics.HistogramJSON `json:"latency"`
}

func (m *routerMetrics) export(pool *Pool) routerMetricsJSON {
	var doc routerMetricsJSON
	doc.UptimeSeconds = time.Since(m.start).Seconds()
	doc.Endpoints = map[string]endpointJSON{}
	for ep := 0; ep < repCount; ep++ {
		if m.requests[ep].Load() == 0 {
			continue
		}
		doc.Endpoints[repNames[ep]] = endpointJSON{
			Requests: m.requests[ep].Load(),
			Errors:   m.errors[ep].Load(),
			Latency:  m.latency[ep].Export(false),
		}
	}
	doc.Fanout.Attempts = m.attempts.Load()
	doc.Fanout.Retries = m.retries.Load()
	doc.Fanout.RetryDenied = m.retryDenied.Load()
	doc.Fanout.Hedges = m.hedges.Load()
	doc.Fanout.HedgeWins = m.hedgeWins.Load()
	doc.Fanout.Partials = m.partials.Load()
	doc.Fanout.NoReplica = m.noReplica.Load()
	doc.Fanout.ShardBytes = m.shardBytes.Load()
	doc.Ingest.Forwarded = m.ingestForwarded.Load()
	doc.Ingest.NoPrimary = m.ingestNoPrimary.Load()
	doc.Ingest.Rerouted = m.ingestRerouted.Load()
	doc.Cluster = pool.Status()
	return doc
}

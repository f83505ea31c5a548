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
	endpoints *metrics.Endpoints

	attempts    atomic.Int64 // proxied shard requests, including retries
	retries     atomic.Int64 // failure-triggered re-dispatches onto a sibling replica
	retryDenied atomic.Int64 // retries onto a sibling replica the budget refused
	partials    atomic.Int64 // degraded responses (206, partial:true)
	noReplica   atomic.Int64 // shard fan-outs that found no routable replica
	shardBytes  atomic.Int64 // response-body bytes read from shards, all attempts

	ingestForwarded atomic.Int64 // /ingest requests relayed to a primary
	ingestNoPrimary atomic.Int64 // /ingest requests that found no routable primary
	ingestRerouted  atomic.Int64 // /ingest attempts bounced (409/failure) onto another node

	start time.Time
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{endpoints: metrics.NewEndpoints(repNames[:]...), start: time.Now()}
}

// routerMetricsJSON is the router /metrics document (the cluster-level
// counterpart of negmined's /metrics).
type routerMetricsJSON struct {
	UptimeSeconds float64                         `json:"uptimeSeconds"`
	Endpoints     map[string]metrics.EndpointJSON `json:"endpoints"`
	Fanout        struct {
		Attempts    int64 `json:"attempts"`
		Retries     int64 `json:"retries"`
		RetryDenied int64 `json:"retryDenied"`
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

func (m *routerMetrics) export(pool *Pool) routerMetricsJSON {
	var doc routerMetricsJSON
	doc.UptimeSeconds = time.Since(m.start).Seconds()
	doc.Endpoints = m.endpoints.Export()
	doc.Fanout.Attempts = m.attempts.Load()
	doc.Fanout.Retries = m.retries.Load()
	doc.Fanout.RetryDenied = m.retryDenied.Load()
	doc.Fanout.Partials = m.partials.Load()
	doc.Fanout.NoReplica = m.noReplica.Load()
	doc.Fanout.ShardBytes = m.shardBytes.Load()
	doc.Ingest.Forwarded = m.ingestForwarded.Load()
	doc.Ingest.NoPrimary = m.ingestNoPrimary.Load()
	doc.Ingest.Rerouted = m.ingestRerouted.Load()
	doc.Cluster = pool.Status()
	return doc
}

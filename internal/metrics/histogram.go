// Package metrics is the request spine negmined (via internal/serve) and
// negrouter (via internal/cluster) share: the per-endpoint request table
// with its bucketed latency histogram, the middleware that recovers a panic
// and records each request in that table, and the JSON document and error
// writers. Shard and router latencies therefore share bucket bounds and line
// up in dashboards.
package metrics

import (
	"sync/atomic"
	"time"
)

// bucketBounds are the histogram bucket upper bounds. The last bucket is
// +Inf. (An array, not a slice, so len() is a compile-time constant below.)
var bucketBounds = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	1 * time.Second,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// The zero value is ready.
type Histogram struct {
	buckets [len(bucketBounds) + 1]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for ; i < len(bucketBounds); i++ {
		if d <= bucketBounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Quantile estimates q ∈ (0,1] from the bucket counts (upper-bound of the
// bucket containing the q-th observation — the usual Prometheus-style bound).
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(bucketBounds) {
				return bucketBounds[i]
			}
			break
		}
	}
	// +Inf bucket: report the largest finite bound.
	return bucketBounds[len(bucketBounds)-1]
}

// HistogramJSON is a histogram's block in a /metrics document.
type HistogramJSON struct {
	Count   int64            `json:"count"`
	MeanMs  float64          `json:"meanMs"`
	P50Ms   float64          `json:"p50Ms"`
	P99Ms   float64          `json:"p99Ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Export snapshots the histogram, with the non-empty buckets keyed
// "le=<bound>" / "+Inf".
func (h *Histogram) Export() HistogramJSON {
	out := HistogramJSON{Count: h.count.Load()}
	if out.Count == 0 {
		return out
	}
	out.MeanMs = float64(h.sumNs.Load()) / float64(out.Count) / 1e6
	out.P50Ms = h.Quantile(0.50).Seconds() * 1e3
	out.P99Ms = h.Quantile(0.99).Seconds() * 1e3
	out.Buckets = map[string]int64{}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			label := "+Inf"
			if i < len(bucketBounds) {
				label = "le=" + bucketBounds[i].String()
			}
			out.Buckets[label] = n
		}
	}
	return out
}

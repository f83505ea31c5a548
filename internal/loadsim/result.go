package loadsim

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// EndpointResult is one endpoint's outcome tally and latency distribution.
// Quantiles are exact (computed from every recorded sample, not bucketed).
type EndpointResult struct {
	Endpoint string `json:"endpoint"`
	// Offered counts scripted ops; Sent is how many were actually issued
	// (the run may be cancelled early), and the rest classify responses:
	// OK (2xx except 206), Partial (206 degraded reads through a router),
	// Shed (503 carrying Retry-After), Err4xx / Err5xx by status class,
	// NetErr transport failures.
	Offered    int64   `json:"offered"`
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Partial    int64   `json:"partial206"`
	Shed       int64   `json:"shed"`
	Err4xx     int64   `json:"err4xx"`
	Err5xx     int64   `json:"err5xx"`
	NetErr     int64   `json:"netErrors"`
	OfferedRPS float64 `json:"offeredRps"`
	MeanMs     float64 `json:"meanMs"`
	P50Ms      float64 `json:"p50Ms"`
	P99Ms      float64 `json:"p99Ms"`
	P999Ms     float64 `json:"p999Ms"`
}

// FreshnessResult is the tracer-itemset freshness distribution: for each
// tracer, the delta between the acknowledged plant completion and the first
// /rules poll that served the engineered negative rule.
type FreshnessResult struct {
	Tracers     int     `json:"tracers"`
	Visible     int     `json:"visible"`
	Missed      int     `json:"missed"` // not visible before PollTimeout
	PlantTxns   int     `json:"plantTxns"`
	PlantErrors int64   `json:"plantErrors,omitempty"`
	P50Seconds  float64 `json:"p50Seconds"`
	P99Seconds  float64 `json:"p99Seconds"`
	MaxSeconds  float64 `json:"maxSeconds"`
	// SamplesSeconds lists every visible tracer's freshness, sorted.
	SamplesSeconds []float64 `json:"samplesSeconds,omitempty"`
}

// Result is one run's full outcome; negload -json prints it verbatim.
type Result struct {
	Target          string           `json:"target"`
	Seed            int64            `json:"seed"`
	Ops             int              `json:"ops"`
	DurationSeconds float64          `json:"durationSeconds"` // scripted length
	ElapsedSeconds  float64          `json:"elapsedSeconds"`  // load-phase wall time
	OfferedRPS      float64          `json:"offeredRps"`
	AchievedRPS     float64          `json:"achievedRps"`
	Endpoints       []EndpointResult `json:"endpoints"`
	Freshness       *FreshnessResult `json:"freshness,omitempty"`
}

// Print renders the run as a human-readable summary.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "offered %.0f rps, achieved %.0f rps over %.1fs (%d ops)\n",
		r.OfferedRPS, r.AchievedRPS, r.ElapsedSeconds, r.Ops)
	for _, ep := range r.Endpoints {
		if ep.Sent == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-6s %6d sent  ok %-6d 4xx %-4d 5xx %-4d shed %-4d 206 %-4d net %-3d  p50 %.2fms p99 %.2fms p999 %.2fms\n",
			ep.Endpoint, ep.Sent, ep.OK, ep.Err4xx, ep.Err5xx, ep.Shed, ep.Partial, ep.NetErr,
			ep.P50Ms, ep.P99Ms, ep.P999Ms)
	}
	if fr := r.Freshness; fr != nil {
		fmt.Fprintf(w, "  freshness: %d/%d tracers visible (plants %d txns)  p50 %.2fs p99 %.2fs max %.2fs\n",
			fr.Visible, fr.Tracers, fr.PlantTxns, fr.P50Seconds, fr.P99Seconds, fr.MaxSeconds)
	}
}

// quantiles returns exact (mean, p50, p99, p999) in milliseconds. lat is
// sorted in place.
func quantiles(lat []time.Duration) (mean, p50, p99, p999 float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)))
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i].Seconds() * 1e3
	}
	return sum.Seconds() * 1e3 / float64(len(lat)), at(0.50), at(0.99), at(0.999)
}

// secondsQuantile returns the exact q-quantile of sorted samples.
func secondsQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

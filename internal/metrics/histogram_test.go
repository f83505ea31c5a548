package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func TestHistogramQuantileAndExport(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	if raw, _ := json.Marshal(h.Export()); string(raw) != `{"count":0,"meanMs":0,"p50Ms":0,"p99Ms":0}` {
		t.Fatalf("empty export = %s", raw)
	}
	// 98 fast samples, one on a bucket boundary, one beyond the last bound.
	for i := 0; i < 98; i++ {
		h.Observe(80 * time.Microsecond)
	}
	h.Observe(5 * time.Millisecond)
	h.Observe(3 * time.Second)
	if got := h.Quantile(0.50); got != 100*time.Microsecond {
		t.Errorf("p50 = %v, want the 100µs bucket bound", got)
	}
	if got := h.Quantile(0.99); got != 5*time.Millisecond {
		t.Errorf("p99 = %v, want 5ms (bounds are inclusive)", got)
	}
	if got := h.Quantile(1); got != time.Second {
		t.Errorf("p100 = %v, want the largest finite bound for the +Inf bucket", got)
	}
	full := h.Export()
	want := map[string]int64{"le=100µs": 98, "le=5ms": 1, "+Inf": 1}
	if full.Count != 100 || len(full.Buckets) != len(want) {
		t.Fatalf("export = %+v", full)
	}
	for k, n := range want {
		if full.Buckets[k] != n {
			t.Errorf("bucket %q = %d, want %d", k, full.Buckets[k], n)
		}
	}
}

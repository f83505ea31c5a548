package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, ascending
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0, 1, 99}} {
		v, beyond := percentile(xs, c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
}

// tail must never report a percentile with fewer than ten samples beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail sorts its own copy
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		used float64
		want float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly 10 beyond
		{999, 0.99, 0.9, 900},   // p99 would leave 9 beyond
		{100, 0.99, 0.9, 90},
		{80, 0.9, 0.75, 60}, // p90 of 80 leaves 8 beyond
		{30, 0.99, 0.5, 15}, // nothing above the median is supported
		{100, 0.9, 0.9, 90},
	} {
		v, used := tail(series(c.n), c.q)
		if used != c.used || v != c.want {
			t.Errorf("tail(n=%d, q=%v) = %v at p%v, want %v at p%v", c.n, c.q, v, used*100, c.want, c.used*100)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{3, 5}, 2.5, 4, 5.5},
		// statistics.quantiles([1.0, 1.1, 1.3, 1.2, 0.9, 1.05, 1.15], n=4) == [1.0, 1.1, 1.2]
		{[]float64{1.0, 1.1, 1.3, 1.2, 0.9, 1.05, 1.15}, 1.0, 1.1, 1.2},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []span{
		{Name: "cycle", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "gen.stage1", Start: ms(0), End: ms(30), Parent: 0},
		{Name: "negative.stages23", Start: ms(30), End: ms(90), Parent: 0},
		{Name: "count.negpass", Start: ms(40), End: ms(50), Parent: 2},
		{Name: "count.negpass", Start: ms(60), End: ms(65), Parent: 2},
		{Name: "probe", Start: ms(100), End: ms(120), Parent: -1, Cycle: 0},
		{Name: "cycle", Start: ms(120), End: ms(160), Parent: -1, Cycle: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{10, 30, 45, 10, 5, 20, 40}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], w*time.Millisecond)
		}
	}
	// Self times of a tree add up to its root.
	if sum := self[0] + self[1] + self[2] + self[3] + self[4]; sum != spans[0].dur() {
		t.Errorf("self times sum to %v, root is %v", sum, spans[0].dur())
	}
	// A layer called twice in a cycle reports the cycle's total.
	if got := byCycle(spans, totals(spans), "count.negpass"); !reflect.DeepEqual(got, []float64{0.015}) {
		t.Errorf("byCycle(count.negpass) = %v, want [0.015]", got)
	}
	if got := byCycle(spans, totals(spans), "cycle"); !reflect.DeepEqual(got, []float64{0.1, 0.04}) {
		t.Errorf("byCycle(cycle) = %v, want [0.1 0.04]", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.in("a", func() {
		tr.in("b", func() {})
		tr.in("c", func() { tr.in("d", func() {}) })
	})
	var parents []int
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start || s.Workload != "w" {
			t.Errorf("bad span %+v", s)
		}
	}
	if want := []int{-1, 0, 0, 2}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	// The untraced run goes through the same code with a nil tracer.
	ran := false
	(*tracer)(nil).in("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestOpStreamDeterminism(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	misses := []string{"x", "y"}
	gen := func(seed int64) []byte {
		ops, err := genOps(seed, 500, vocab, misses)
		if err != nil {
			t.Fatal(err)
		}
		return encodeOps(ops)
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("the same seed gave two different op streams")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds gave the same op stream")
	}
	ops, _ := genOps(7, 4000, vocab, misses)
	score, miss, draws := 0, 0, 0
	for _, o := range ops {
		names := o.Basket
		if o.Score {
			score++
			if len(o.Basket) != basketSize {
				t.Fatalf("basket %v has %d items", o.Basket, len(o.Basket))
			}
		} else {
			names = []string{o.Item}
		}
		for _, n := range names {
			draws++
			if n == "x" || n == "y" {
				miss++
			}
		}
	}
	if share := float64(score) / float64(len(ops)); share < 0.45 || share > 0.55 {
		t.Errorf("/score share %.3f, want about 0.5", share)
	}
	if share := float64(miss) / float64(draws); share < 0.07 || share > 0.13 {
		t.Errorf("miss share %.3f, want about %.2f", share, missShare)
	}
}

func TestNamesAndLimits(t *testing.T) {
	m := theManifest()
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRe)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check("end-to-end metric", e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != lower && e.Better != higher) {
			t.Errorf("end-to-end metric %+v: bad bound or direction", e)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, p := range m.PerLayer {
		check("per-layer metric", p.Name)
		if p.Better != lower && p.Better != higher {
			t.Errorf("per-layer metric %+v: bad direction", p)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// The committed BENCHMARK.json is the harness's own tables, nothing more:
// it decodes into the schema structs with no unknown key and re-encodes to
// the same document.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json does not fit the schema: %v", err)
	}
	if want := theManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness tables; regenerate it with `benchmark/run.sh manifest > BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}
	var out bytes.Buffer
	if err := dispatch(context.Background(), []string{"manifest"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("BENCHMARK.json is not byte-identical to `negbench manifest` output")
	}
}

func TestMetricsFinish(t *testing.T) {
	m := newMetrics()
	for _, e := range endToEnd {
		m.set(e.Name, 1.5)
	}
	vals, err := m.finish(false)
	if err != nil || len(vals) != len(endToEnd) {
		t.Fatalf("finish = %v, %v", vals, err)
	}
	m.set("setup_s", 2) // twice
	if _, err := m.finish(false); err == nil {
		t.Error("a metric emitted twice was accepted")
	}
	m = newMetrics()
	m.set("no.such_metric", 1)
	if _, err := m.finish(true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	m = newMetrics()
	if _, err := m.finish(false); err == nil {
		t.Error("missing end-to-end metrics were accepted")
	}
	// Traced: every per-layer metric is present; unvisited layers read 0.
	m = newMetrics()
	m.set("gen.stage1_s", 0.25)
	vals, err = m.finish(true)
	if err != nil || len(vals) != len(perLayer) || vals["gen.stage1_s"].Value != 0.25 || vals["negative.candgen_s"].Value != 0 {
		t.Errorf("traced finish = %d values, %v", len(vals), err)
	}
}

func TestCompare(t *testing.T) {
	mk := func(latency, thr float64) suiteFile {
		var f suiteFile
		for seed := int64(1); seed <= 4; seed++ {
			jitter := 1 + float64(seed)/1000
			f.Runs = append(f.Runs, suiteRun{Workload: wlServeRead, Seed: seed, Result: result{Correct: true, Metrics: map[string]metricValue{
				"setup_s":          {2 * jitter, "s"},
				"result_p50_ms":    {latency * jitter, "ms"},
				"throughput_per_s": {thr * jitter, "1/s"},
				"peak_rss_mb":      {100 * jitter, "MiB"},
			}}})
		}
		return f
	}
	// 5% worse is inside every bound, 50% worse outside every bound (bounds
	// are at most 0.25, see TestNamesAndLimits).
	rows, err := compareSuites(mk(1.0, 2000), mk(1.05, 1900))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want %d", len(rows), len(endToEnd))
	}
	for _, r := range rows {
		if r.outside() {
			t.Errorf("%s %s: 5%% worse flagged outside a %v bound", r.workload, r.metric, r.bound)
		}
	}
	rows, _ = compareSuites(mk(1.0, 2000), mk(1.5, 1000))
	outside := map[string]bool{}
	for _, r := range rows {
		outside[r.metric] = r.outside()
	}
	if !outside["result_p50_ms"] || !outside["throughput_per_s"] || outside["setup_s"] || outside["peak_rss_mb"] {
		t.Errorf("outside = %v", outside)
	}
	// A gain is never a regression, whichever way "better" points.
	rows, _ = compareSuites(mk(1.0, 2000), mk(0.5, 4000))
	for _, r := range rows {
		if r.outside() {
			t.Errorf("%s: an improvement was flagged", r.metric)
		}
	}
	if _, err := compareSuites(mk(1, 1), suiteFile{}); err == nil {
		t.Error("comparing against an empty file succeeded")
	}
}

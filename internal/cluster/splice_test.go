package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

// This file holds the byte merge to its two specifications at once: what
// one unsharded daemon serves, and what the reference merge (MergeRules,
// MergeMatches) plus the whole-document encoder make of the shards' decoded
// plain replies — the router this one replaced.

// encodeDoc is that encoder: the settings every document of the system is
// specified in.
func encodeDoc(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spliceWorld is a random rule set over a random taxonomy, served unsharded
// and as n shards split with ShardOfAntecedent, all by real serve.Servers.
type spliceWorld struct {
	names     []string
	unsharded http.Handler
	shards    []*httptest.Server
}

// awkwardNames need escaping (HTML, quotes, control characters, the JS line
// separators) or are multi-byte; all are valid UTF-8, so they survive the
// reference's decode and re-encode unchanged.
var awkwardNames = []string{`<b>&"q"`, `back\slash`, "tab\there", "\x01\x1f", "naïve", "日本語", "🛒", "ls\u2028ps\u2029", "a b"}

// newSpliceWorld draws a world of rules rules over awkwardNames, extraNames
// and plain further names.
func newSpliceWorld(t testing.TB, rng *rand.Rand, shards, plain, rules int, extraNames ...string) *spliceWorld {
	t.Helper()
	w := &spliceWorld{names: append(append([]string(nil), awkwardNames...), extraNames...)}
	for i := 0; i < plain; i++ {
		w.names = append(w.names, fmt.Sprintf("item%d", i))
	}
	rng.Shuffle(len(w.names), func(i, j int) { w.names[i], w.names[j] = w.names[j], w.names[i] })
	tb := taxonomy.NewBuilder()
	tb.Link(w.names[0], w.names[1])
	for i := 2; i < len(w.names)-3; i++ {
		if rng.Float64() < 0.8 {
			tb.Link(w.names[rng.Intn(i)], w.names[i])
		}
	}
	tax, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0.2, 0.4, 0.4, 0.6, 1, 1e-7, 1e21, 0} // few levels: RI ties across shards
	rep := &report.NegativeReport{}
	for i := 0; i < rules; i++ {
		side := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = w.names[rng.Intn(len(w.names))]
			}
			return out
		}
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent: side(1 + rng.Intn(3)), Consequent: side(1 + rng.Intn(2)),
			RuleInterest: levels[rng.Intn(len(levels))], ExpectedSupport: rng.Float64(), ActualSupport: levels[rng.Intn(len(levels))],
		})
	}
	st := rulestore.FromReport(rep)
	handler := func(keep func(ante, cons []string) bool) http.Handler {
		snap := serve.BuildSnapshot(st, tax, serve.Meta{Source: "splice", Keep: keep})
		srv, err := serve.NewServer(context.Background(),
			func(context.Context) (*serve.Snapshot, error) { return snap, nil },
			serve.WithLogger(func(string, ...any) {}))
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	w.unsharded = handler(nil)
	for k := 0; k < shards; k++ {
		k := k
		ts := httptest.NewServer(handler(func(ante, _ []string) bool { return ShardOfAntecedent(ante, shards) == k }))
		t.Cleanup(ts.Close)
		w.shards = append(w.shards, ts)
	}
	return w
}

// router fronts the world's shards, leaving those in down unregistered.
func (w *spliceWorld) router(t testing.TB, down ...int) http.Handler {
	t.Helper()
	backends := make([][]*shardBackend, len(w.shards))
	for k, ts := range w.shards {
		backends[k] = []*shardBackend{{t: t, srv: ts}}
	}
	for _, k := range down {
		backends[k] = nil
	}
	return testRouter(t, RouterConfig{Shards: len(w.shards)}, backends...).Handler()
}

// spliceQuery is one read, sendable to a handler or to a shard's URL.
type spliceQuery struct {
	item   string   // /rules when basket is nil
	basket []string // /score
	minRI  *float64
	limit  int
}

func (q spliceQuery) request(t testing.TB, base string) *http.Request {
	t.Helper()
	if q.basket == nil {
		v := url.Values{"item": {q.item}}
		if q.minRI != nil {
			v.Set("minri", fmt.Sprint(*q.minRI))
		}
		if q.limit > 0 {
			v.Set("limit", fmt.Sprint(q.limit))
		}
		req, err := http.NewRequest(http.MethodGet, base+"/rules?"+v.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	score := serve.ScoreRequest{Basket: q.basket, Limit: q.limit}
	if q.minRI != nil {
		score.MinRI = *q.minRI
	}
	body, err := json.Marshal(score)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/score", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func (q spliceQuery) serve(t testing.TB, h http.Handler) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, q.request(t, ""))
	return rec.Code, rec.Body.Bytes()
}

// fetch asks a shard the way a client without the frame Accept does, and
// gets the public document.
func (q spliceQuery) fetch(t *testing.T, shard *httptest.Server) []byte {
	t.Helper()
	resp, err := shard.Client().Do(q.request(t, shard.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard %s: status %d, %v", shard.URL, resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("a plain request got Content-Type %q", ct)
	}
	return buf.Bytes()
}

// reference is the replaced router's answer: decode the answering shards'
// plain documents, merge them with the reference merge, encode the result.
// With every shard down it is the router's own degraded envelope.
func (q spliceQuery) reference(t *testing.T, w *spliceWorld, down ...int) []byte {
	t.Helper()
	isDown := map[int]bool{}
	for _, k := range down {
		isDown[k] = true
	}
	minRI := 0.0
	if q.minRI != nil {
		minRI = *q.minRI
	}
	if q.basket != nil {
		out := ScoreDoc{Basket: q.basket, MinRI: minRI, Partial: len(down) > 0, MissingShards: down}
		var lists [][]WireMatch
		for k, ts := range w.shards {
			if isDown[k] {
				continue
			}
			var doc ScoreDoc
			if err := json.Unmarshal(q.fetch(t, ts), &doc); err != nil {
				t.Fatal(err)
			}
			lists = append(lists, doc.Matches)
		}
		out.Matches = MergeMatches(lists, q.limit)
		return encodeDoc(t, out)
	}
	out := RulesDoc{Item: q.item, Expanded: []string{q.item}, MinRI: minRI, Partial: len(down) > 0, MissingShards: down}
	var lists [][]WireRule
	for k, ts := range w.shards {
		if isDown[k] {
			continue
		}
		var doc RulesDoc
		if err := json.Unmarshal(q.fetch(t, ts), &doc); err != nil {
			t.Fatal(err)
		}
		if len(lists) == 0 {
			out.Expanded = doc.Expanded
		}
		lists = append(lists, doc.Rules)
	}
	out.Rules = MergeRules(lists, q.limit)
	return encodeDoc(t, out)
}

func (w *spliceWorld) queries(rng *rand.Rand) []spliceQuery {
	var thresholds []*float64
	for _, v := range []float64{0, 0.4, 1e-7, 0.5, 2e21} {
		v := v
		thresholds = append(thresholds, nil, &v)
	}
	limits := []int{0, 0, 1, 3, 1000}
	var qs []spliceQuery
	for _, item := range append(append([]string(nil), w.names...), "unknown<item>") {
		qs = append(qs, spliceQuery{item: item, minRI: thresholds[rng.Intn(len(thresholds))], limit: limits[rng.Intn(len(limits))]})
	}
	for i := 0; i < 30; i++ {
		basket := make([]string, 1+rng.Intn(4))
		for j := range basket {
			basket[j] = w.names[rng.Intn(len(w.names))]
		}
		if rng.Float64() < 0.3 {
			basket = append(basket, "caviar")
		}
		// What the daemons see of a basket is its JSON form (invalid UTF-8
		// arrives as U+FFFD); ask the references the same question.
		wire, _ := json.Marshal(basket)
		_ = json.Unmarshal(wire, &basket)
		qs = append(qs, spliceQuery{basket: basket, minRI: thresholds[rng.Intn(len(thresholds))], limit: limits[rng.Intn(len(limits))]})
	}
	return qs
}

// TestRoutedBytesMatchUnshardedAndReference: for 1 to 5 shards, every
// routed reply is byte for byte the unsharded daemon's and the reference
// merge's; with one shard down and with all down, the 206 body is the
// reference's Partial document.
func TestRoutedBytesMatchUnshardedAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	withRules, partialWithRules := 0, 0
	for shards := 1; shards <= 5; shards++ {
		w := newSpliceWorld(t, rng, shards, 14, 30+rng.Intn(90))
		full := w.router(t)
		lame := rng.Intn(shards)
		oneDown := w.router(t, lame)
		var all []int
		for k := 0; k < shards; k++ {
			all = append(all, k)
		}
		allDown := w.router(t, all...)
		for _, q := range w.queries(rng) {
			code, got := q.serve(t, full)
			if _, want := q.serve(t, w.unsharded); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%d shards, %+v: routed reply (status %d) differs from the unsharded daemon's\nrouted:    %q\nunsharded: %q",
					shards, q, code, got, want)
			}
			if want := q.reference(t, w); !bytes.Equal(got, want) {
				t.Fatalf("%d shards, %+v: routed reply differs from the reference merge\nrouted:    %q\nreference: %q", shards, q, got, want)
			}
			if bytes.Contains(got, []byte(`"antecedent"`)) {
				withRules++
			}

			code, got = q.serve(t, oneDown)
			if want := q.reference(t, w, lame); code != http.StatusPartialContent || !bytes.Equal(got, want) {
				t.Fatalf("%d shards, shard %d down, %+v: status %d\nrouted:    %q\nreference: %q", shards, lame, q, code, got, want)
			}
			if bytes.Contains(got, []byte(`"antecedent"`)) {
				partialWithRules++
			}

			code, got = q.serve(t, allDown)
			if want := q.reference(t, w, all...); code != http.StatusPartialContent || !bytes.Equal(got, want) {
				t.Fatalf("%d shards, all down, %+v: status %d\nrouted:    %q\nreference: %q", shards, q, code, got, want)
			}
		}
	}
	if withRules < 200 || partialWithRules < 100 {
		t.Fatalf("weak coverage: %d full and %d partial replies carried rules", withRules, partialWithRules)
	}
}

// TestRoutedBytesWithInvalidUTF8Names: item names that are not valid UTF-8
// reach the client exactly as the unsharded daemon escapes them. (The
// reference merge is no witness here: it decodes each bad byte to U+FFFD
// and re-encodes that as the rune, not as the escape the daemon wrote — a
// difference the router it describes always had.)
func TestRoutedBytesWithInvalidUTF8Names(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newSpliceWorld(t, rng, 3, 14, 100, "bad\xffutf8", "\xc3\x28", "trunc\xe2\x82")
	full := w.router(t)
	escapes := 0
	for _, q := range w.queries(rng) {
		code, got := q.serve(t, full)
		if _, want := q.serve(t, w.unsharded); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%+v: routed reply (status %d) differs from the unsharded daemon's\nrouted:    %q\nunsharded: %q", q, code, got, want)
		}
		escapes += strings.Count(string(got), `\ufffd`)
	}
	if escapes == 0 {
		t.Fatal("no reply carried an escaped invalid byte")
	}
}

// routedReads is BenchmarkRoutedRead's world: the router over two real
// shard servers on loopback, and one /rules and one /score query of the
// benchmark's shape (limit 20) on the busiest item, so both endpoints fill
// their limit. Each routed reply is first checked against the unsharded
// daemon's.
func routedReads(tb testing.TB) (rt http.Handler, qs []namedQuery) {
	rng := rand.New(rand.NewSource(1))
	w := newSpliceWorld(tb, rng, 2, 120, 4000)
	item, most := "", 0
	for _, name := range w.names {
		_, body := spliceQuery{item: name}.serve(tb, w.unsharded)
		if n := bytes.Count(body, []byte(`"antecedent"`)); n > most {
			item, most = name, n
		}
	}
	rt = w.router(tb)
	qs = []namedQuery{
		{"rules", spliceQuery{item: item, limit: 20}},
		{"score", spliceQuery{basket: []string{item, w.names[0], w.names[1]}, limit: 20}},
	}
	for _, q := range qs {
		code, body := q.serve(tb, rt)
		if _, want := q.serve(tb, w.unsharded); code != http.StatusOK || !bytes.Equal(body, want) {
			tb.Fatalf("%s: routed reply (status %d) differs from the unsharded daemon's", q.name, code)
		}
		if n := bytes.Count(body, []byte(`"antecedent"`)); n != 20 {
			tb.Fatalf("%s: reply carries %d rules, want the limit of 20", q.name, n)
		}
	}
	return rt, qs
}

type namedQuery struct {
	name string
	spliceQuery
}

// TestRoutedReadAllocs pins the allocations of one routed /rules and one
// routed /score, the router's and both shards' together. Most of them are
// the two servers' request parsing and the router's reply parsing; the
// router's own fan-out allocates a handful.
func TestRoutedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt, qs := routedReads(t)
	for _, q := range qs {
		ceiling := map[string]float64{"rules": 122, "score": 177}[q.name]
		allocs := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, q.request(t, ""))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", q.name, rec.Code)
			}
		})
		t.Logf("%s: %v allocs per routed read", q.name, allocs)
		if allocs > ceiling {
			t.Errorf("%s: %v allocs per routed read, want ≤ %v", q.name, allocs, ceiling)
		}
	}
}

// BenchmarkRoutedRead is the routed read in one process: the router's
// handler over two real shard servers on loopback, answering the
// benchmark's shape of request (limit 20). Allocations are the router's and
// both shards' together.
func BenchmarkRoutedRead(b *testing.B) {
	rt, qs := routedReads(b)
	for _, q := range qs {
		b.Run(q.name, func(b *testing.B) {
			_, body := q.serve(b, rt)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, q.request(b, ""))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

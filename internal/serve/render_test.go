package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine/internal/report"
	"negmine/internal/ruleframe"
	"negmine/internal/rulestore"
	"negmine/internal/snapfmt"
	"negmine/internal/taxonomy"
)

// The reference: the per-request encoder the handlers used before rules
// were rendered at snapshot build — one Go value per rule, the whole
// document through encoding/json. The handlers' bytes are specified as
// "whatever this emits"; it lives on here only to say so.

type refRulesResponse struct {
	Item     string     `json:"item"`
	Expanded []string   `json:"expanded"`
	MinRI    float64    `json:"minRI"`
	Rules    []RuleJSON `json:"rules"`
}

type refMatchJSON struct {
	RuleJSON
	Triggers map[string]string `json:"triggers"`
}

type refScoreResponse struct {
	Basket  []string       `json:"basket"`
	MinRI   float64        `json:"minRI"`
	Matches []refMatchJSON `json:"matches"`
}

func refRuleJSON(e rulestore.Entry) RuleJSON {
	return RuleJSON{
		Antecedent:      e.Antecedent,
		Consequent:      e.Consequent,
		RuleInterest:    e.RI,
		ExpectedSupport: e.Expected,
		ActualSupport:   e.Actual,
	}
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

func refRules(t *testing.T, snap *Snapshot, item string, minRI float64, limit int) []byte {
	ids := snap.QueryItem(nil, item, minRI, limit)
	resp := refRulesResponse{Item: item, Expanded: snap.Expand(nil, item), MinRI: minRI, Rules: make([]RuleJSON, len(ids))}
	for i, id := range ids {
		resp.Rules[i] = refRuleJSON(snap.Entry(id))
	}
	return refEncode(t, resp)
}

func refScore(t *testing.T, snap *Snapshot, basket []string, minRI float64, limit int) []byte {
	ids := snap.Score(nil, basket, minRI, limit)
	resp := refScoreResponse{Basket: basket, MinRI: minRI, Matches: make([]refMatchJSON, len(ids))}
	for i, id := range ids {
		resp.Matches[i] = refMatchJSON{RuleJSON: refRuleJSON(snap.Entry(id)), Triggers: snap.Triggers(id, basket)}
	}
	return refEncode(t, resp)
}

// hostileNames are item names that exercise every branch of encoding/json's
// string escaping: HTML-sensitive characters, quotes and backslashes,
// control characters, invalid UTF-8, multi-byte runes, the two line
// separators JSON escapes for JavaScript's sake, and the empty name.
var hostileNames = []string{
	`<script>&amp;</script>`, `say "hi"`, `back\slash`, "tab\there", "nl\nhere", "\x00\x01\x1f", "del\x7f",
	"bad\xffutf8", "\xc3\x28", "trunc\xe2\x82", "naïve café", "日本語", "emoji 🛒", "ls\u2028ps\u2029", "",
	" lead and trail ", "a,b", "{}[]:", "\x1e\x1f",
}

// hostileMeasures are RI and support values that exercise the encoder's
// float formatting: zero, negative zero, integers, the exponent thresholds
// on both sides, the extremes, and values repeated so that RIs tie.
var hostileMeasures = []float64{
	0, math.Copysign(0, -1), 1, 2, 100, 0.5, 0.25, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 1.5e300, -3,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1.0 / 3,
}

// hostileWorld builds a random taxonomy and rule store over hostileNames
// (plus a few plain ones), with measures from hostileMeasures, so RI ties
// are frequent. It returns the name pool too.
func hostileWorld(t testing.TB, rng *rand.Rand) (*rulestore.Store, *taxonomy.Taxonomy, []string) {
	t.Helper()
	pool := append([]string(nil), hostileNames...)
	for i := 0; i < 6; i++ {
		pool = append(pool, fmt.Sprintf("plain%d", i))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	b := taxonomy.NewBuilder()
	b.Link(pool[0], pool[1])
	for i := 2; i < len(pool)-4; i++ { // the last four stay out of the taxonomy
		if rng.Float64() < 0.8 {
			b.Link(pool[rng.Intn(i)], pool[i])
		}
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatalf("taxonomy.Build: %v", err)
	}
	pick := func() float64 { return hostileMeasures[rng.Intn(len(hostileMeasures))] }
	rep := &report.NegativeReport{}
	for i, n := 0, 1+rng.Intn(60); i < n; i++ {
		side := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = pool[rng.Intn(len(pool))] // repeats allowed: ["a","a"] is a legal report
			}
			return out
		}
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent:      side(1 + rng.Intn(3)),
			Consequent:      side(1 + rng.Intn(2)),
			RuleInterest:    pick(),
			ExpectedSupport: pick(),
			ActualSupport:   pick(),
		})
	}
	return rulestore.FromReport(rep), tax, pool
}

func serveSnapshot(t *testing.T, snap *Snapshot) http.Handler {
	t.Helper()
	return newTestServer(t, func(context.Context) (*Snapshot, error) { return snap, nil }).Handler()
}

// do sends one request, asking for a frame when framed is set.
func do(h http.Handler, method, target, body string, framed bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if framed {
		req.Header.Set("Accept", ruleframe.MediaType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// readQuery is one /rules or /score request of the differential tests.
type readQuery struct {
	item   string   // /rules when basket is nil
	basket []string // /score
	minRI  *float64 // nil = parameter absent
	limit  int
}

func (q readQuery) send(t *testing.T, h http.Handler, framed bool) *httptest.ResponseRecorder {
	t.Helper()
	if q.basket == nil {
		v := url.Values{"item": {q.item}}
		if q.minRI != nil {
			v.Set("minri", fmt.Sprint(*q.minRI))
		}
		if q.limit > 0 {
			v.Set("limit", fmt.Sprint(q.limit))
		}
		return do(h, http.MethodGet, "/rules?"+v.Encode(), "", framed)
	}
	req := ScoreRequest{Basket: q.basket, Limit: q.limit}
	if q.minRI != nil {
		req.MinRI = *q.minRI
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return do(h, http.MethodPost, "/score", string(body), framed)
}

func (q readQuery) reference(t *testing.T, snap *Snapshot) []byte {
	minRI := 0.0
	if q.minRI != nil {
		minRI = *q.minRI
	}
	if q.basket == nil {
		return refRules(t, snap, q.item, minRI, q.limit)
	}
	return refScore(t, snap, q.basket, minRI, q.limit)
}

// randomQueries draws /rules and /score requests over pool: limit 0, 1 and
// n, minri absent and set (including a threshold nothing passes, for empty
// lists), unknown items, baskets with unknown and repeated items.
func randomQueries(rng *rand.Rand, pool []string) []readQuery {
	thresholds := []*float64{nil, nil}
	for _, v := range []float64{0, 0.25, 1, 1e21, -5, 1e-7, 1.5e300} {
		v := v
		thresholds = append(thresholds, &v)
	}
	limits := []int{0, 0, 1, 2, 7, 1000}
	var qs []readQuery
	for _, item := range append(append([]string(nil), pool...), "unknown-item", "<unknown&>") {
		if item == "" {
			continue // /rules?item= is a 400: the parameter is required
		}
		qs = append(qs, readQuery{item: item, minRI: thresholds[rng.Intn(len(thresholds))], limit: limits[rng.Intn(len(limits))]})
	}
	for i := 0; i < 40; i++ {
		basket := make([]string, 1+rng.Intn(5))
		for j := range basket {
			basket[j] = pool[rng.Intn(len(pool))]
		}
		if rng.Float64() < 0.3 {
			basket = append(basket, "caviar\xff<")
		}
		// A basket travels as JSON, which cannot carry invalid UTF-8: the
		// server sees U+FFFD for each bad byte. Query with what it sees, so
		// the reference is asked the same question.
		wire, _ := json.Marshal(basket)
		_ = json.Unmarshal(wire, &basket)
		qs = append(qs, readQuery{basket: basket, minRI: thresholds[rng.Intn(len(thresholds))], limit: limits[rng.Intn(len(limits))]})
	}
	return qs
}

// frameAsDocument reassembles a frame reply the way the router does for a
// single shard that answered: prefix, entries, tail.
func frameAsDocument(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != ruleframe.MediaType {
		t.Fatalf("frame reply has Content-Type %q", ct)
	}
	f, err := ruleframe.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("frame reply does not decode: %v", err)
	}
	out := append([]byte(nil), f.Prefix...)
	for i, e := range f.Entries {
		out = append(ruleframe.AppendSep(out, i), e.Elem...)
	}
	return ruleframe.AppendTail(out, len(f.Entries), nil)
}

// TestHandlersMatchReferenceEncoder is the specification of "same bytes":
// over random rule sets with hostile names and measures, every /rules and
// /score body the concatenating handlers send equals the reference
// encoder's, as a document and reassembled from the frame, and the frame's
// merge keys are the rules' RI and signature in serving order.
func TestHandlersMatchReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	nonEmpty, empty, escapedTriggers := 0, 0, 0
	for trial := 0; trial < 25; trial++ {
		st, tax, pool := hostileWorld(t, rng)
		snap := BuildSnapshot(st, tax, Meta{Source: "hostile"})
		h := serveSnapshot(t, snap)
		for _, q := range randomQueries(rng, pool) {
			want := q.reference(t, snap)
			doc := q.send(t, h, false)
			if doc.Code != http.StatusOK || !bytes.Equal(doc.Body.Bytes(), want) {
				t.Fatalf("trial %d %+v: status %d, body differs from the reference encoder\ngot:  %q\nwant: %q",
					trial, q, doc.Code, doc.Body.Bytes(), want)
			}
			if got := doc.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
				t.Fatalf("trial %d %+v: Content-Length %q for %d bytes", trial, q, got, len(want))
			}
			if ct := doc.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("trial %d %+v: Content-Type %q", trial, q, ct)
			}
			framed := q.send(t, h, true)
			if got := frameAsDocument(t, framed); framed.Code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("trial %d %+v: frame (status %d) reassembles to\n%q\nwant\n%q", trial, q, framed.Code, got, want)
			}
			if bytes.Contains(want, []byte(`"antecedent"`)) {
				nonEmpty++
			} else {
				empty++
			}
			if i := bytes.Index(want, []byte(`"triggers": {`)); i >= 0 && bytes.Contains(want[i:], []byte(`\u`)) {
				escapedTriggers++
			}
		}
	}
	if nonEmpty < 100 || empty < 100 || escapedTriggers < 20 {
		t.Fatalf("weak coverage: %d replies with rules, %d without, %d with escapes behind \"triggers\"",
			nonEmpty, empty, escapedTriggers)
	}
	t.Logf("%d replies with rules, %d without, %d with escapes behind \"triggers\"", nonEmpty, empty, escapedTriggers)
}

// TestFrameCarriesMergeKeys checks the half of the frame the router sorts
// by against the arena it was rendered from.
func TestFrameCarriesMergeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st, tax, _ := hostileWorld(t, rng)
	snap := BuildSnapshot(st, tax, Meta{})
	all := snap.Rules()
	// Every rule mentions some item; ask for each and collect what comes.
	seen := 0
	for _, name := range snap.names {
		if name == "" {
			continue // /rules?item= is a 400
		}
		rec := readQuery{item: name}.send(t, serveSnapshot(t, snap), true)
		f, err := ruleframe.Decode(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("item %q: %v", name, err)
		}
		ids := snap.QueryItem(nil, name, 0, 0)
		if len(f.Entries) != len(ids) {
			t.Fatalf("item %q: frame has %d entries, query %d", name, len(f.Entries), len(ids))
		}
		for i, e := range f.Entries {
			want := all[ids[i]]
			if math.Float64bits(e.RI) != math.Float64bits(want.RI) || string(e.Sig) != want.Signature() {
				t.Fatalf("item %q entry %d: key (%v, %q), want (%v, %q)", name, i, e.RI, e.Sig, want.RI, want.Signature())
			}
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no entry checked")
	}
}

// TestSnapshotFileKeepsHandlerBytes: a snapshot written as .nsnap and
// opened again (fragments served from the mapping, never re-rendered)
// answers every request with the bytes of the snapshot it was written from.
func TestSnapshotFileKeepsHandlerBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		st, tax, pool := hostileWorld(t, rng)
		built := BuildSnapshot(st, tax, Meta{Source: "hostile"})
		path := filepath.Join(t.TempDir(), "snap.nsnap")
		if err := WriteSnapshotFile(path, built, 1); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenSnapshotFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opened.frag, built.frag) || built.Len() > 0 && len(opened.frag) == 0 {
			t.Fatal("opened snapshot's fragment arena differs from the built one")
		}
		hb, ho := serveSnapshot(t, built), serveSnapshot(t, opened)
		for _, q := range randomQueries(rng, pool) {
			for _, framed := range []bool{false, true} {
				want, got := q.send(t, hb, framed), q.send(t, ho, framed)
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("trial %d %+v framed=%v: re-opened snapshot answers\n%q\nbuilt one\n%q",
						trial, q, framed, got.Body.Bytes(), want.Body.Bytes())
				}
			}
		}
	}
}

// TestOpenSnapshotFileRejectsVersion1: a file from before the fragment
// sections is not read by a second code path; it fails the version check
// and the daemon rebuilds from its source, as for any unreadable snapshot.
func TestOpenSnapshotFileRejectsVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.nsnap")
	if err := WriteSnapshotFile(path, testSnapshot(t), 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:], 1)                            // header version
	binary.LittleEndian.PutUint32(data[60:], snapfmt.Checksum(data[:60])) // header CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshotFile(path, 0)
	if !errors.Is(err, snapfmt.ErrFormat) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("opening a version-1 file: %v, want the unsupported-version error", err)
	}
}

// TestRulesRejectsNonFiniteMinRI: NaN and ±Inf parse as floats but have no
// JSON form, so the envelope cannot echo them; they are a 400 like any other
// bad minri (the reference encoder answered them 200 with an empty body).
func TestRulesRejectsNonFiniteMinRI(t *testing.T) {
	h := serveSnapshot(t, testSnapshot(t))
	for _, v := range []string{"NaN", "Inf", "-Inf", "+inf"} {
		rec := do(h, http.MethodGet, "/rules?item=pepsi&minri="+url.QueryEscape(v), "", false)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "not a finite number") {
			t.Errorf("minri=%s: %d %s", v, rec.Code, rec.Body.String())
		}
	}
}

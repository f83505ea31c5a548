package ruleframe

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDoc is the public /rules document shape (cluster.RulesDoc, which this
// package may not import), encoded the way the daemons always have: the
// layout functions are specified as "what this emits".
type refDoc struct {
	Item          string   `json:"item"`
	Expanded      []string `json:"expanded"`
	MinRI         float64  `json:"minRI"`
	Rules         []refRow `json:"rules"`
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []int    `json:"missingShards,omitempty"`
}

type refScoreDoc struct {
	Basket        []string `json:"basket"`
	MinRI         float64  `json:"minRI"`
	Matches       []refRow `json:"matches"`
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []int    `json:"missingShards,omitempty"`
}

type refRow struct {
	N int `json:"n"`
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rowElem is a refRow as it stands in the list.
func rowElem(n int) []byte {
	return []byte(fmt.Sprintf("    {\n      \"n\": %d%s", n, ElemClose))
}

func TestLayoutMatchesEncoder(t *testing.T) {
	items := []string{"pepsi", `<a href="x">&`, "bad\xffutf8", "日本", ""}
	minRIs := []float64{0, 0.5, 1e-7, 1e21, -2, 100}
	for _, n := range []int{0, 1, 3} {
		for _, missing := range [][]int{nil, {1}, {0, 2, 11}} {
			for i, item := range items {
				minRI := minRIs[i%len(minRIs)]
				rows := make([]refRow, n)
				for k := range rows {
					rows[k].N = k
				}
				splice := func(prefix []byte, err error) []byte {
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < n; k++ {
						prefix = append(AppendSep(prefix, k), rowElem(k)...)
					}
					return AppendTail(prefix, n, missing)
				}

				want := refEncode(t, refDoc{Item: item, Expanded: items[:i+1], MinRI: minRI, Rules: rows,
					Partial: missing != nil, MissingShards: missing})
				if got := splice(AppendRulesPrefix(nil, item, items[:i+1], minRI)); !bytes.Equal(got, want) {
					t.Fatalf("/rules n=%d missing=%v item=%q:\ngot  %q\nwant %q", n, missing, item, got, want)
				}
				want = refEncode(t, refScoreDoc{Basket: items[i:], MinRI: minRI, Matches: rows,
					Partial: missing != nil, MissingShards: missing})
				if got := splice(AppendScorePrefix(nil, items[i:], minRI)); !bytes.Equal(got, want) {
					t.Fatalf("/score n=%d missing=%v basket=%q:\ngot  %q\nwant %q", n, missing, items[i:], got, want)
				}
			}
		}
	}
}

func TestPrefixRejectsNonFiniteMinRI(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if out, err := AppendRulesPrefix([]byte("kept"), "x", []string{"x"}, v); err == nil || string(out) != "kept" {
			t.Errorf("AppendRulesPrefix(minRI=%v) = %q, %v", v, out, err)
		}
		if _, err := AppendScorePrefix(nil, []string{"x"}, v); err == nil {
			t.Errorf("AppendScorePrefix(minRI=%v) succeeded", v)
		}
	}
	// The pooled encoder is unharmed by the failure.
	if out, err := AppendRulesPrefix(nil, "x", []string{"x"}, 1); err != nil || !bytes.HasSuffix(out, []byte(`"rules": [`)) {
		t.Fatalf("after a failed encode: %q, %v", out, err)
	}
}

// TestQuotedMatchesEncoder: every single byte, alone and inside ASCII, and
// a handful of multi-byte and invalid sequences quote exactly as
// encoding/json quotes them — the verbatim shortcut included.
func TestQuotedMatchesEncoder(t *testing.T) {
	cases := []string{"", "plain_item-42", "日本語", "\u2028\u2029", "\xc3\x28", "trunc\xe2\x82", "a\x00b", `"\<>&`}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"yz")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendQuoted([]byte("|"), s); string(got) != "|"+string(want) {
			t.Errorf("AppendQuoted(%q) = %s, encoding/json writes %s", s, got[1:], want)
		}
	}
}

// TestFloatMatchesEncoder: AppendFloat writes every float as json.Marshal
// does — around both edges of the exponent form, zero of both signs,
// subnormals, the extremes, and random bit patterns of every exponent.
func TestFloatMatchesEncoder(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, math.Nextafter(1e-6, 0),
		math.Nextafter(1e-6, 1), 1e-7, 9.999999e-7, 1e20, 1e21, math.Nextafter(1e21, 0), 1e22, 123456789e15,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e-10, 1e-100, 1.5e-7, 2e-9, 1e100, -1e-7, -1e21, 0.000001, 100, 0.75}
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			cases = append(cases, f)
		}
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat([]byte("|"), f); string(got) != "|"+string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", f, got[1:], want)
		}
	}
}

// refRule is the fields AppendRule renders, as the serve and report types
// (which this package may not import) declare them.
type refRule struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	RuleInterest    float64  `json:"ruleInterest"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
}

// TestRuleMatchesEncoder: a rule object AppendRule opens and ElemClose
// closes is the encoder's rendering of it in a document's rule list, with
// nil, empty and escaped sides.
func TestRuleMatchesEncoder(t *testing.T) {
	sides := [][]string{nil, {}, {"a"}, {"pepsi", "<chips>&", "bad\xff", "\u2028"}, {"", `"q"\`}}
	measures := []float64{0, 1e-7, 0.5, -3, 1e21}
	for i, ante := range sides {
		for j, cons := range sides {
			r := refRule{ante, cons, measures[i], measures[j], measures[(i+j)%len(measures)]}
			want := refEncode(t, struct {
				Rules []refRule `json:"rules"`
			}{[]refRule{r}})
			got := append(AppendSep([]byte("{\n  \"rules\": ["), 0), AppendRule(nil, ante, cons, r.RuleInterest, r.ExpectedSupport, r.ActualSupport)...)
			got = AppendTail(append(got, ElemClose...), 1, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("rule %+v:\ngot  %q\nwant %q", r, got, want)
			}
		}
	}
}

func TestSignature(t *testing.T) {
	got := AppendSignature([]byte("|"), []string{"a", "b"}, []string{"c"})
	if string(got) != "|a\x1fb\x1ec" {
		t.Fatalf("signature = %q", got)
	}
	if got := AppendSignature(nil, nil, nil); string(got) != "\x1e" {
		t.Fatalf("empty signature = %q", got)
	}
}

// sampleFrame is a well-formed three-entry frame with an RI tie.
func sampleFrame() []byte {
	b := AppendHeader(nil, []byte("{\n  \"rules\": ["), 3)
	b = AppendEntry(b, 0.9, []byte("a\x1ex"), []byte("    {A}"))
	b = AppendEntry(b, 0.5, []byte("b\x1ex"), []byte("    {B}"))
	return AppendEntry(b, 0.5, []byte("c\x1ex"), nil)
}

func TestFrameRoundTrip(t *testing.T) {
	f, err := Decode(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Prefix) != "{\n  \"rules\": [" || len(f.Entries) != 3 {
		t.Fatalf("frame = %+v", f)
	}
	if e := f.Entries[1]; e.RI != 0.5 || string(e.Sig) != "b\x1ex" || string(e.Elem) != "    {B}" {
		t.Fatalf("entry 1 = %+v", e)
	}
	if e := f.Entries[2]; len(e.Elem) != 0 {
		t.Fatalf("entry 2 = %+v", e)
	}
	empty, err := Decode(AppendHeader(nil, nil, 0))
	if err != nil || len(empty.Entries) != 0 || len(empty.Prefix) != 0 {
		t.Fatalf("empty frame = %+v, %v", empty, err)
	}
}

func TestLess(t *testing.T) {
	hi, lo := &Entry{RI: 2, Sig: []byte("z")}, &Entry{RI: 1, Sig: []byte("a")}
	if !Less(hi, lo) || Less(lo, hi) {
		t.Fatal("higher RI must sort first")
	}
	a, b := &Entry{RI: 1, Sig: []byte("a")}, &Entry{RI: 1, Sig: []byte("b")}
	if !Less(a, b) || Less(b, a) || Less(a, a) {
		t.Fatal("RI ties must sort by ascending signature, strictly")
	}
	if z, nz := (&Entry{RI: 0}), (&Entry{RI: math.Copysign(0, -1)}); Less(z, nz) || Less(nz, z) {
		t.Fatal("0 and -0 must tie")
	}
}

// hostileFrames are the corruptions the router must survive: each must be
// rejected with ErrFrame, none may panic or allocate by an announced size.
func hostileFrames() map[string][]byte {
	good := sampleFrame()
	set := func(b []byte, at int, v uint32) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	nan := AppendHeader(nil, nil, 1)
	nan = AppendEntry(nan, math.NaN(), []byte("s"), []byte("e"))
	unordered := AppendHeader(nil, nil, 2)
	unordered = AppendEntry(unordered, 0.1, []byte("s"), nil)
	unordered = AppendEntry(unordered, 0.2, []byte("s"), nil)
	tieUnordered := AppendHeader(nil, nil, 2)
	tieUnordered = AppendEntry(tieUnordered, 0.1, []byte("b"), nil)
	tieUnordered = AppendEntry(tieUnordered, 0.1, []byte("a"), nil)
	prefixAt := len(magic) + 4
	firstSigAt := prefixAt + 4 + len("{\n  \"rules\": [") + 8
	out := map[string][]byte{
		"empty":                  {},
		"magic only":             []byte(magic),
		"wrong magic":            append([]byte("NRF2"), good[4:]...),
		"a JSON document":        []byte("{\n  \"item\": \"x\",\n  \"rules\": []\n}\n"),
		"count beyond the bytes": set(good, len(magic), 4),
		"count 2^32-1":           set(good, len(magic), math.MaxUint32),
		"count too small":        set(good, len(magic), 2), // trailing bytes
		"prefix length 2^32-1":   set(good, prefixAt, math.MaxUint32),
		"prefix swallows all":    set(good, prefixAt, uint32(len(good)-prefixAt-4)),
		"sig length 2^31":        set(good, firstSigAt, 1<<31),
		"sig overlaps elem":      set(good, firstSigAt, 9),
		"NaN rule interest":      nan,
		"RI ascending":           unordered,
		"tie out of order":       tieUnordered,
		"trailing byte":          append(bytes.Clone(good), 0),
	}
	for _, cut := range []int{1, 5, 9, prefixAt + 2, firstSigAt - 3, firstSigAt + 2, len(good) / 2, len(good) - 1} {
		out[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	return out
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	for name, b := range hostileFrames() {
		f, err := Decode(b)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: Decode = %+v, %v; want ErrFrame", name, f, err)
		}
	}
}

// TestDecodeDoesNotAllocateByAnnouncedCount: the entry table is sized by
// the count only once the bytes present could hold that many entries.
func TestDecodeDoesNotAllocateByAnnouncedCount(t *testing.T) {
	b := AppendHeader(nil, nil, 0)
	binary.LittleEndian.PutUint32(b[len(magic):], math.MaxUint32)
	b = append(b, make([]byte, 1<<10)...)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Decode(b); err == nil {
			t.Error("decoded")
		}
	})
	// An error value and its message, never a 2^32-entry table (which
	// would be 200 GiB and fail the test by itself).
	if allocs > 8 {
		t.Fatalf("rejecting an oversized count took %v allocations", allocs)
	}
}

// FuzzDecodeFrame drives arbitrary bytes through Decode. The invariants:
// it never panics; the entry table never exceeds what the input could hold;
// and an accepted frame is in serving order, NaN-free, aliases the input,
// and re-encodes to exactly the input.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(sampleFrame())
	f.Add(AppendHeader(nil, nil, 0))
	for _, b := range hostileFrames() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("error does not wrap ErrFrame: %v", err)
			}
			return
		}
		if len(fr.Entries)*entryOverhead > len(data) {
			t.Fatalf("%d entries from %d bytes", len(fr.Entries), len(data))
		}
		out := AppendHeader(nil, fr.Prefix, len(fr.Entries))
		for i := range fr.Entries {
			e := &fr.Entries[i]
			if math.IsNaN(e.RI) {
				t.Fatalf("entry %d: NaN accepted", i)
			}
			if i > 0 && Less(e, &fr.Entries[i-1]) {
				t.Fatalf("entry %d out of order", i)
			}
			out = AppendEntry(out, e.RI, e.Sig, e.Elem)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted frame does not re-encode to its input")
		}
	})
}

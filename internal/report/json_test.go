package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"negmine/internal/item"
	"negmine/internal/negative"
)

// encodeWhole is WriteNegativeJSON as it was before it rendered a record at
// a time: one json.Encoder pass over BuildNegative's report.
func encodeWhole(res *negative.Result, minSup, minRI float64, name func(item.Item) string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(BuildNegative(res, minSup, minRI, name))
	return buf.Bytes(), err
}

// hostileNames are item names the writer must quote as encoding/json does:
// HTML characters, quotes, backslash, control bytes, invalid UTF-8, the
// line separators JSON escapes, multi-byte text, the empty name.
var hostileNames = []string{
	"pepsi", "<a href=\"x\">&amp;", `back\slash`, "tab\there", "nul\x00", "bad\xffutf8",
	"line\u2028sep", "日本語", "", "del\x7f", "cat1_50",
}

// edgeFloats are the float format's edges: zero of both signs, around 1e-6
// and 1e21 where encoding/json switches to exponent form, the smallest
// subnormal, negative values, and values with long shortest forms.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0),
	5e-324, -1e-7, -0.5, -1e21, 0.1, 1.0 / 3, 123456789, 1e-300, 1e300, 0.75, 2e-9,
}

// randomResult draws a mining result whose names come from pool and whose
// measures come from edgeFloats or anywhere, with empty sides and sources.
func randomResult(rng *rand.Rand, pool []string) (*negative.Result, func(item.Item) string) {
	name := func(i item.Item) string { return pool[int(i)%len(pool)] }
	set := func(max int) item.Itemset {
		s := item.Itemset{}
		for i := rng.Intn(max + 1); i > 0; i-- {
			s = append(s, item.Item(rng.Intn(4*len(pool))))
		}
		return s
	}
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
	}
	res := &negative.Result{}
	for i := rng.Intn(6); i > 0; i-- {
		res.Rules = append(res.Rules, negative.Rule{
			Antecedent: set(3), Consequent: set(3), RI: f(), Expected: f(), Actual: f(),
			NegConfidence: f(), Source: set(4), Via: negative.Mode(rng.Intn(2)),
		})
	}
	for i := rng.Intn(6); i > 0; i-- {
		res.Negatives = append(res.Negatives, negative.Itemset{
			Set: set(4), Expected: f(), Count: rng.Intn(1000) - 10, N: []int{0, 1, 3, 7, 1 << 40}[rng.Intn(5)],
			Source: set(4), Via: negative.Mode(rng.Intn(2)),
		})
	}
	return res, name
}

// TestWriteNegativeJSONMatchesEncoder: over random results with hostile
// names and edge measures, empty results included, the writer's bytes are
// json.Encoder's with SetIndent("", "  ") over BuildNegative, and reading
// them back returns what one Decode of the whole document does.
func TestWriteNegativeJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	results := []*negative.Result{{}, {Rules: []negative.Rule{{Antecedent: item.New(1), Consequent: item.New(2)}}}}
	for trial := 0; trial < 400; trial++ {
		var res *negative.Result
		if trial < len(results) {
			res = results[trial]
		} else {
			res, _ = randomResult(rng, hostileNames)
		}
		name := func(i item.Item) string { return hostileNames[int(i)%len(hostileNames)] }
		minSup, minRI := edgeFloats[trial%len(edgeFloats)], edgeFloats[(trial/3)%len(edgeFloats)]
		want, err := encodeWhole(res, minSup, minRI, name)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteNegativeJSON(&got, res, minSup, minRI, name); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: writer differs from the encoder\ngot:  %q\nwant: %q", trial, got.Bytes(), want)
		}
		back, err := ReadNegativeJSON(bytes.NewReader(want))
		whole, wholeErr := readWhole(bytes.NewReader(want))
		if fmt.Sprint(err) != fmt.Sprint(wholeErr) || !reflect.DeepEqual(back, whole) {
			t.Fatalf("trial %d: read back %+v, %v; whole decode %+v, %v", trial, back, err, whole, wholeErr)
		}
	}
}

// TestWriteNegativeJSONNonFinite: a NaN or ±Inf anywhere fails with the
// encoder's error, the first in document order, before a byte is written.
func TestWriteNegativeJSONNonFinite(t *testing.T) {
	res, name := sampleResult()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 8; field++ {
			r := *res
			r.Rules = append([]negative.Rule(nil), res.Rules...)
			r.Negatives = append([]negative.Itemset(nil), res.Negatives...)
			minSup, minRI := 0.1, 0.5
			switch field {
			case 0:
				minSup = bad
			case 1:
				minRI = bad
			case 2:
				r.Rules[1].RI = bad
			case 3:
				r.Rules[0].Expected, r.Rules[1].Actual = bad, -bad
			case 4:
				r.Rules[1].NegConfidence = bad
			case 5:
				r.Negatives[0].Expected = bad
			case 6:
				r.Negatives[0].Count, r.Negatives[0].N = 1, 0
				r.Negatives[0].Expected = bad // Actual is 0 when N is 0
			case 7:
				r.Rules[1].Actual, r.Negatives[0].Expected = bad, -bad
			}
			_, wantErr := encodeWhole(&r, minSup, minRI, name)
			var got bytes.Buffer
			err := WriteNegativeJSON(&got, &r, minSup, minRI, name)
			if wantErr == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) || got.Len() != 0 {
				t.Errorf("%v in field %d: wrote %d bytes, error %v; the encoder's is %v", bad, field, got.Len(), err, wantErr)
			}
		}
	}
}

// TestScanAcceptsWriterOutput: the scanner, not the fallback, reads every
// document the writer writes — hostile names and all, as written, compacted
// and re-indented — and returns what encoding/json decodes.
func TestScanAcceptsWriterOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// A window's worth of one name makes a token refill and grow the window,
	// the escaped one in the middle of an escape.
	long := strings.Repeat("x", scanWindow+7)
	pool := append([]string{long, long + "\t" + long}, hostileNames...)
	for trial := 0; trial < 200; trial++ {
		res, name := randomResult(rng, pool)
		var doc bytes.Buffer
		if err := WriteNegativeJSON(&doc, res, 0.01, 0.5, name); err != nil {
			t.Fatal(err)
		}
		var compact, tabs bytes.Buffer
		if err := json.Compact(&compact, doc.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&tabs, doc.Bytes(), "\r", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{doc.Bytes(), compact.Bytes(), tabs.Bytes()} {
			var want NegativeReport
			if err := json.Unmarshal(in, &want); err != nil {
				t.Fatal(err)
			}
			got, ok := scanNegative(bytes.NewReader(in))
			if !ok {
				t.Fatalf("trial %d: the scanner left the writer's document to encoding/json:\n%s", trial, in)
			}
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("trial %d: scanned %+v, encoding/json decodes %+v", trial, got, want)
			}
		}
	}
}

// TestReadNegativeJSONRewinds: a document the scanner leaves to the decoder
// (here for a key in another case) is decoded from where the reader stood,
// not from where the scan stopped.
func TestReadNegativeJSONRewinds(t *testing.T) {
	doc := `{"minSupport": 0.1, "rules": [{"antecedent": ["a"], "consequent": ["b"], "Via": "siblings"}]}`
	r := strings.NewReader("skipped" + doc)
	if _, err := r.Seek(int64(len("skipped")), 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNegativeJSON(r)
	if err != nil || got.MinSupport != 0.1 || len(got.Rules) != 1 || got.Rules[0].Via != "siblings" {
		t.Fatalf("got %+v, %v", got, err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"negmine/internal/datagen"
)

// referenceIngest is what DecodeIngest is held to: one encoding/json
// Decoder value with unknown fields refused and only whitespace after it,
// then the batch's checks; the bytes forwarded are the body up to the end
// of that value.
func referenceIngest(body []byte) (IngestBatch, []byte, error) {
	var b IngestBatch
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, nil, fmt.Errorf("bad request body: %v", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return b, nil, errors.New("bad request body: trailing data after the JSON value")
	}
	if len(b.Baskets) == 0 {
		return b, nil, errors.New("baskets must contain at least one basket")
	}
	for i, basket := range b.Baskets {
		if len(basket) == 0 {
			return b, nil, fmt.Errorf("basket %d is empty", i)
		}
	}
	switch {
	case b.Key == "" && b.Seq != 0:
		return b, nil, errors.New("seq requires a key")
	case b.Key != "" && b.Seq == 0:
		return b, nil, errors.New("keyed batches need seq >= 1")
	}
	return b, body[:end], nil
}

// ingestRequest is a POST /ingest carrying body, with size as its announced
// length; its body can be read again after a Seek to its start.
func ingestRequest(body []byte, size int64) (*http.Request, rewindBody) {
	rb := rewindBody{strings.NewReader(string(body))}
	req := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	req.Body, req.ContentLength = rb, size
	return req, rb
}

// decodeIngestBody is DecodeIngest on body, announced as size bytes long.
func decodeIngestBody(body []byte, size int64) (IngestBatch, []byte, error) {
	req, _ := ingestRequest(body, size)
	return DecodeIngest(req)
}

// ingestRound is an /ingest body as the stream-mixed writer posts it: the
// first n transactions of datagen's Short model (seed 1), by item name.
func ingestRound(tb testing.TB, n int) []byte {
	tb.Helper()
	p := datagen.Short()
	p.NumTransactions, p.Seed = n, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	baskets := make([][]string, 0, n)
	for _, tx := range db.Transactions() {
		names := make([]string, len(tx.Items))
		for i, it := range tx.Items {
			names[i] = tax.Name(it)
		}
		baskets = append(baskets, names)
	}
	body, err := json.Marshal(map[string]any{"baskets": baskets})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// scannedSeeds are bodies ruleframe's lexer reads, DecodeIngest's checks
// passed or not.
var scannedSeeds = []string{
	`{"baskets":[["beer","chips"],["milk"]]}`,
	`{"baskets":[["beer","chips"]],"key":"w1","seq":7}`,
	" {\n\t\"seq\" : 7 ,\r\n \"key\" : \"w1\" , \"baskets\" : [ [ \"beer\" ] , [ \"milk\" ] ] } \n",
	`{"baskets":[["bière","薯片"]],"key":"ключ","seq":1}`,
	`{}`,
	`{"baskets":[]}`,
	`{"baskets":[[]]}`,
	`{"baskets":[[],["beer"],[]]}`,
	`{"key":"","seq":0}`,
	`{"baskets":[["<b>&amp;</b>"]],"key":"<w>"}`,
	`{"baskets":[["beer"]],"key":"w","seq":18446744073709551615}`,
	`{"baskets":[["be\"er","chi\\ps","beer"]]}`,
	`{"baskets":[["AT\u0026T","\u003cb\u003e","\/\b\f\n\r\t"]],"key":"w\u0031","seq":1}`,
	`{"baskets":[["🍺","\ud83c\udf7a","\u2028"]]}`,
	`{"b\u0061skets":[["beer"]],"k\u0065y":"w","seq":2}`,
	`{"baskets":[["beer"]],"seq":7}`,
	`{"baskets":[["beer"]],"key":"w"}`,
}

// fallbackSeeds are bodies the lexer leaves to encoding/json: every way out
// of what it reads, valid or not.
var fallbackSeeds = []string{
	// lone surrogates, bad escapes, invalid UTF-8, control bytes
	`{"baskets":[["🍺","\ud83c","\udf7a"]]}`,
	`{"baskets":[["\ud83c\u0041"]]}`,
	`{"baskets":[["be\x"]]}`,
	"{\"baskets\":[[\"\xff\xfe\",\"be\xc3\"]]}",
	"{\"baskets\":[[\"\xed\xa0\x80\"]]}",
	"{\"baskets\":[[\"be\ter\"]]}",
	"{\"baskets\":[[\"beer\"]],\"key\":\"w\x01\"}",
	// case variants, duplicate keys, null
	`{"Baskets":[["beer"]]}`,
	`{"BASKETS":[["beer"]],"Key":"w1","SEQ":3}`,
	`{"baskets":[["beer"]],"baskets":[["milk"]]}`,
	`{"baskets":[["beer"]],"key":"a","key":"b","seq":1}`,
	`{"baskets":[["beer"]],"seq":1,"seq":2,"key":"w"}`,
	`{"baskets":null}`,
	`{"baskets":[null,["beer"]]}`,
	`{"baskets":[["beer",null]]}`,
	`{"baskets":[["beer"]],"key":null,"seq":null}`,
	`null`,
	// trailing bytes, unknown fields, broken syntax
	`{"baskets":[["beer"]]}x`,
	`{"baskets":[["beer"]]} {"baskets":[["milk"]]}`,
	`{"baskets":[["beer"]]}]`,
	`{"baskets":[["beer"]],"extra":1}`,
	`{"baskets":[["beer"]],}`,
	`{"baskets":[["beer"],]}`,
	`{"baskets":[["beer",]]}`,
	`{"baskets":[["beer"]]`,
	`{"baskets":[["beer`,
	`{"baskets":[[1,2]]}`,
	`{"baskets":"beer"}`,
	`[["beer"]]`,
	``,
	` `,
	`{"baskets" [["beer"]]}`,
	`{,"baskets":[["beer"]]}`,
	`{"baskets":[["beer"]] "key":"w","seq":1}`,
	`{"baskets":[["beer" "chips"]]}`,
	`{"baskets":[["beer"] ["chips"]]}`,
	// seq: negative, fractional, exponent, leading zero, past uint64
	`{"baskets":[["beer"]],"key":"w","seq":-1}`,
	`{"baskets":[["beer"]],"key":"w","seq":1.5}`,
	`{"baskets":[["beer"]],"key":"w","seq":1.0}`,
	`{"baskets":[["beer"]],"key":"w","seq":1e3}`,
	`{"baskets":[["beer"]],"key":"w","seq":1E3}`,
	`{"baskets":[["beer"]],"key":"w","seq":01}`,
	`{"baskets":[["beer"]],"key":"w","seq":-0}`,
	`{"baskets":[["beer"]],"key":"w","seq":18446744073709551616}`,
	`{"baskets":[["beer"]],"key":"w","seq":"7"}`,
	`{"baskets":[["beer"]],"key":7,"seq":7}`,
}

// checkIngestAgrees fails when DecodeIngest and referenceIngest disagree on
// body: the same batch and bytes forwarded, or both an error with the same
// text.
func checkIngestAgrees(t *testing.T, body []byte) {
	got, fwd, err := decodeIngestBody(body, int64(len(body)))
	want, wantFwd, wantErr := referenceIngest(body)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, reference %v", body, err, wantErr)
	}
	if err == nil && (!reflect.DeepEqual(got, want) || !bytes.Equal(fwd, wantFwd)) {
		t.Fatalf("%q: decoded %#v forwarding %q, reference %#v forwarding %q", body, got, fwd, want, wantFwd)
	}
}

// FuzzDecodeIngest checks DecodeIngest against encoding/json and the
// batch's checks on every input.
func FuzzDecodeIngest(f *testing.F) {
	for _, s := range append(scannedSeeds, fallbackSeeds...) {
		f.Add([]byte(s))
	}
	f.Add(ingestRound(f, 20))
	f.Fuzz(checkIngestAgrees)
}

// TestDecodeIngestScansCommonShape pins which bodies the lexer reads on its
// own, so a reader that handed everything to encoding/json would fail here
// even though every answer stayed right.
func TestDecodeIngestScansCommonShape(t *testing.T) {
	for _, s := range append(scannedSeeds, string(ingestRound(t, 250))) {
		if _, _, ok := scanIngest([]byte(s)); !ok {
			t.Errorf("%.80q: left to encoding/json, want scanned", s)
		}
	}
	for _, s := range fallbackSeeds {
		if _, _, ok := scanIngest([]byte(s)); ok {
			t.Errorf("%q: scanned, want it left to encoding/json", s)
		}
	}
}

// TestDecodeIngestKeyOwnsItsMemory pins that the key shares no memory with
// the body or with the copy names are carved from: the seglog dedup window
// keeps every key, and a key aliasing its body would keep the body too.
func TestDecodeIngestKeyOwnsItsMemory(t *testing.T) {
	body := []byte(`{"baskets":[["beer","chips"]],"key":"writer-1","seq":7}`)
	b, read, err := decodeIngestBody(body, int64(len(body)))
	if err != nil || b.Key != "writer-1" {
		t.Fatalf("DecodeIngest = %+v, %v", b, err)
	}
	within := func(p, base uintptr, n int) bool { return p >= base && p < base+uintptr(n) }
	key := uintptr(unsafe.Pointer(unsafe.StringData(b.Key)))
	// The first name stands at the same offset in the copy as in the body.
	name := uintptr(unsafe.Pointer(unsafe.StringData(b.Baskets[0][0])))
	names := name - uintptr(bytes.Index(body, []byte("beer")))
	for what, base := range map[string]uintptr{
		"the body passed in":   uintptr(unsafe.Pointer(&body[0])),
		"the body read":        uintptr(unsafe.Pointer(&read[0])),
		"the names' body copy": names,
	} {
		if within(key, base, len(body)) {
			t.Errorf("the key points into %s", what)
		}
	}
	if within(name, uintptr(unsafe.Pointer(&read[0])), len(read)) {
		t.Error("names are carved from the body read, not from a copy of it")
	}
}

// TestDecodeIngestAllocsConstant pins a body's allocations under a ceiling
// that holds whatever its basket count: the read, the copy of the body, the
// name slab, the basket list and the key.
func TestDecodeIngestAllocsConstant(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 6
	var counts []float64
	for _, n := range []int{25, 250, 2500} {
		body := ingestRound(t, n)
		body = append(body[:len(body)-1], `,"key":"writer-1","seq":7}`...)
		req, rb := ingestRequest(body, int64(len(body)))
		allocs := testing.AllocsPerRun(20, func() {
			_, _ = rb.Seek(0, io.SeekStart)
			if _, _, err := DecodeIngest(req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%d baskets (%d bytes): %v allocs, want at most %d", n, len(body), allocs, ceiling)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocs for 25, 250 and 2500 baskets = %v, want one count", counts)
	}
}

// TestDecodeIngestReadsUnknownLength pins the read without an announced
// length (a chunked body) and with a wrong one: the body comes back whole.
func TestDecodeIngestReadsUnknownLength(t *testing.T) {
	body := ingestRound(t, 250)
	for _, size := range []int64{-1, 0, 100, int64(len(body)), int64(len(body)) + 1000} {
		b, read, err := decodeIngestBody(body, size)
		if err != nil || len(b.Baskets) != 250 || !bytes.Equal(read, body) {
			t.Fatalf("size %d: %d baskets, %d of %d bytes, %v", size, len(b.Baskets), len(read), len(body), err)
		}
	}
}

// BenchmarkDecodeIngest decodes one stream-mixed round (250 Short baskets,
// ≈ 35 KB) with DecodeIngest and, for scale, as encoding/json did before.
func BenchmarkDecodeIngest(b *testing.B) {
	body := ingestRound(b, 250)
	b.Run("scan", func(b *testing.B) {
		req, rb := ingestRequest(body, int64(len(body)))
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			_, _ = rb.Seek(0, io.SeekStart)
			if _, _, err := DecodeIngest(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceIngest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// referenceScore is what DecodeScore is held to: one encoding/json Decoder
// value with unknown fields refused and only whitespace after it, then the
// request's checks; the bytes forwarded are the body up to the end of that
// value.
func referenceScore(body []byte) (ScoreRequest, []byte, error) {
	var req ScoreRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad request body: %v", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return req, nil, errors.New("bad request body: trailing data after the JSON value")
	}
	if len(req.Basket) == 0 {
		return req, nil, errors.New("basket must contain at least one item")
	}
	if req.Limit < 0 {
		return req, nil, fmt.Errorf("bad limit %d", req.Limit)
	}
	return req, body[:end], nil
}

// FuzzDecodeScore checks DecodeScore against referenceScore on every input:
// the request, the bytes a relay forwards, and the error text.
func FuzzDecodeScore(f *testing.F) {
	for _, s := range []string{
		`{"basket":["pepsi","chips"]}`, `{"basket":["a"],"minRI":0.5,"limit":3}`,
		" {\"limit\":2,\"basket\":[\"AT\\u0026T\",\"\\ud83d\\uded2\"]} \n", `{"basket":["a"],"minRI":-0,"limit":0}`,
		`{"basket":[]}`, `{"basket":["a"],"limit":-1}`, `{"basket":["a"],"minRI":null}`, `{"basket":null}`,
		`{"Basket":["a"]}`, `{"basket":["a"],"basket":["b"]}`, `{"basket":["a"]}x`, `{"basket":["a"]}]`, `{"basket":["a"]} {"basket":["b"]}`,
		`{"basket":["a"],"limit":1.5}`, `{"basket":["a"],"minRI":1e999}`, `{"basket":["\ud83d"]}`,
		`{"basket":["a"],"bogus":1}`, ``, `null`, `{"basket":["a"]`, "{\"basket\":[\"\xff\"]}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, fwd, err := DecodeScore(httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)))
		want, wantFwd, wantErr := referenceScore(body)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, reference %v", body, err, wantErr)
		}
		if err == nil && (!reflect.DeepEqual(got, want) || !bytes.Equal(fwd, wantFwd)) {
			t.Fatalf("%q: decoded %#v forwarding %q, reference %#v forwarding %q", body, got, fwd, want, wantFwd)
		}
	})
}

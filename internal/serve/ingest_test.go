package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// fakeSink is an in-memory IngestSink: it assigns sequential TIDs, rejects
// any item name outside its dictionary, and replays keyed retries from a
// map the way the real dedup window does.
type fakeSink struct {
	known   map[string]bool
	nextTID int64
	batches int
	txns    int64
	seen    map[string]IngestResult // key:seq → first result
	fail    error                   // forced server-side failure when set
}

func newFakeSink(names ...string) *fakeSink {
	known := map[string]bool{}
	for _, n := range names {
		known[n] = true
	}
	return &fakeSink{known: known, nextTID: 1, seen: map[string]IngestResult{}}
}

func (f *fakeSink) Ingest(_ context.Context, batch IngestBatch) (IngestResult, error) {
	if f.fail != nil {
		return IngestResult{}, f.fail
	}
	ks := fmt.Sprintf("%s:%d", batch.Key, batch.Seq)
	if batch.Key != "" {
		if res, ok := f.seen[ks]; ok {
			res.Duplicate = true
			return res, nil
		}
	}
	for _, b := range batch.Baskets {
		for _, name := range b {
			if !f.known[name] {
				return IngestResult{}, fmt.Errorf("%w: unknown item %q", ErrIngestRejected, name)
			}
		}
	}
	res := IngestResult{FirstTID: f.nextTID, Accepted: len(batch.Baskets)}
	f.nextTID += int64(len(batch.Baskets))
	res.LastTID = f.nextTID - 1
	f.batches++
	f.txns += int64(len(batch.Baskets))
	if batch.Key != "" {
		f.seen[ks] = res
	}
	return res, nil
}

func (f *fakeSink) Stats() IngestStats {
	return IngestStats{TxnsAppended: f.txns, Segments: f.batches}
}

func newIngestServer(t *testing.T, sink IngestSink, extra ...Option) *Server {
	t.Helper()
	opts := append([]Option{
		WithLogger(func(string, ...any) {}),
		WithIngest(sink),
	}, extra...)
	srv, err := NewServer(context.Background(), func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), testTaxonomy(t), Meta{Source: "test"}), nil
	}, opts...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

func TestHandlerIngest(t *testing.T) {
	sink := newFakeSink("pepsi", "chips")
	h := newIngestServer(t, sink).Handler()

	code, body := post(t, h, "/ingest", `{"baskets":[["pepsi","chips"],["pepsi"]]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /ingest: %d %s", code, body)
	}
	var resp struct {
		Accepted int   `json:"accepted"`
		FirstTID int64 `json:"firstTid"`
		LastTID  int64 `json:"lastTid"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if resp.Accepted != 2 || resp.FirstTID != 1 || resp.LastTID != 2 {
		t.Fatalf("response = %+v", resp)
	}

	// TIDs keep advancing across batches.
	code, body = post(t, h, "/ingest", `{"baskets":[["chips"]]}`)
	if code != http.StatusAccepted {
		t.Fatalf("second POST /ingest: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FirstTID != 3 || resp.LastTID != 3 {
		t.Fatalf("second response = %+v", resp)
	}
}

func TestHandlerIngestValidation(t *testing.T) {
	sink := newFakeSink("pepsi")
	h := newIngestServer(t, sink).Handler()

	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{`, http.StatusBadRequest},
		{"unknown field", `{"basket":[["pepsi"]]}`, http.StatusBadRequest},
		{"no baskets", `{"baskets":[]}`, http.StatusBadRequest},
		{"empty basket", `{"baskets":[["pepsi"],[]]}`, http.StatusBadRequest},
		{"unknown item", `{"baskets":[["coke-zero-max"]]}`, http.StatusBadRequest},
		{"seq without key", `{"baskets":[["pepsi"]],"seq":1}`, http.StatusBadRequest},
		{"key without seq", `{"baskets":[["pepsi"]],"key":"k"}`, http.StatusBadRequest},
		{"second value", `{"baskets":[["pepsi"]]} {"baskets":[["pepsi"]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := post(t, h, "/ingest", tc.body); code != tc.want {
			t.Errorf("%s: got %d %s, want %d", tc.name, code, body, tc.want)
		}
	}
	if code, _ := get(t, h, "/ingest"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: want 405")
	}
	if sink.txns != 0 {
		t.Fatalf("rejected batches were appended: %d txns", sink.txns)
	}

	// A sink failure that is not a content rejection is a 500.
	sink.fail = fmt.Errorf("disk on fire")
	if code, body := post(t, h, "/ingest", `{"baskets":[["pepsi"]]}`); code != http.StatusInternalServerError {
		t.Errorf("sink failure: got %d %s, want 500", code, body)
	}
}

func TestHandlerIngestDisabled(t *testing.T) {
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), testTaxonomy(t), Meta{}), nil
	})
	if code, body := post(t, srv.Handler(), "/ingest", `{"baskets":[["x"]]}`); code != http.StatusNotFound {
		t.Fatalf("ingest without sink: %d %s, want 404", code, body)
	}
}

func TestHandlerIngestBodyBound(t *testing.T) {
	sink := newFakeSink("pepsi")
	h := newIngestServer(t, sink, WithMaxBodyBytes(128)).Handler()

	big := `{"baskets":[["pepsi"` + strings.Repeat(`,"pepsi"`, 64) + `]]}`
	if code, body := post(t, h, "/ingest", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %d %s, want 413", code, body)
	}
	if code, _ := post(t, h, "/ingest", `{"baskets":[["pepsi"]]}`); code != http.StatusAccepted {
		t.Fatalf("small ingest after 413 rejected")
	}
}

func TestHandlerIngestKeyedReplay(t *testing.T) {
	sink := newFakeSink("pepsi")
	h := newIngestServer(t, sink).Handler()

	const body = `{"baskets":[["pepsi"]],"key":"writer-1","seq":7}`
	code, first := post(t, h, "/ingest", body)
	if code != http.StatusAccepted {
		t.Fatalf("keyed POST /ingest: %d %s", code, first)
	}
	// Retrying the same (key, seq) replays the original TID range with 200
	// and the duplicate marker, and appends nothing.
	code, second := post(t, h, "/ingest", body)
	if code != http.StatusOK {
		t.Fatalf("keyed retry: %d %s", code, second)
	}
	var a, b struct {
		FirstTID  int64 `json:"firstTid"`
		LastTID   int64 `json:"lastTid"`
		Duplicate bool  `json:"duplicate"`
	}
	if err := json.Unmarshal([]byte(first), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(second), &b); err != nil {
		t.Fatal(err)
	}
	if a.Duplicate || !b.Duplicate {
		t.Fatalf("duplicate flags: first=%v second=%v", a.Duplicate, b.Duplicate)
	}
	if a.FirstTID != b.FirstTID || a.LastTID != b.LastTID {
		t.Fatalf("replay changed the TID range: %+v vs %+v", a, b)
	}
	if sink.txns != 1 {
		t.Fatalf("retry appended: %d txns", sink.txns)
	}
}

func TestHandlerIngestHAErrors(t *testing.T) {
	sink := newFakeSink("pepsi")
	h := newIngestServer(t, sink).Handler()

	cases := []struct {
		err  error
		want int
	}{
		{ErrIngestFenced, http.StatusConflict},
		{ErrIngestNotPrimary, http.StatusConflict},
		{ErrIngestStale, http.StatusConflict},
		{ErrIngestUnavailable, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		sink.fail = fmt.Errorf("wrapped: %w", tc.err)
		if code, body := post(t, h, "/ingest", `{"baskets":[["pepsi"]]}`); code != tc.want {
			t.Errorf("%v: got %d %s, want %d", tc.err, code, body, tc.want)
		}
	}
}

func TestMetricsIngestBlock(t *testing.T) {
	sink := newFakeSink("pepsi")
	h := newIngestServer(t, sink).Handler()
	if code, _ := post(t, h, "/ingest", `{"baskets":[["pepsi"]]}`); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}

	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	var doc struct {
		Endpoints map[string]json.RawMessage `json:"endpoints"`
		Ingest    *struct {
			TxnsAppended int64 `json:"txnsAppended"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Ingest == nil || doc.Ingest.TxnsAppended != 1 {
		t.Fatalf("ingest block = %+v", doc.Ingest)
	}
	if _, ok := doc.Endpoints["ingest"]; !ok {
		t.Fatalf("no ingest endpoint stats in %v", body)
	}
}

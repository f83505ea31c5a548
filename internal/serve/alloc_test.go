package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// The query and score hot paths are specified allocation-free in steady
// state: result buffers are caller-supplied and scratch comes from pools.
// These tests pin that at 0 allocs/op so a regression fails loudly rather
// than showing up as GC pressure under load.

// skipUnderRace skips an allocation pin when the race detector is on: it
// makes sync.Pool drop items at random, so a pooled path allocates.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func TestQueryItemZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]RuleID, 0, snap.Len())
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	}); allocs != 0 {
		t.Fatalf("QueryItem: %v allocs/op, want 0", allocs)
	}
}

// TestQuerySharedZeroAllocs pins the call /rules serves from: QueryItemCtx
// into a buffer a previous request has grown.
func TestQuerySharedZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	ctx := context.Background()
	ids, err := snap.QueryItemCtx(ctx, nil, "pepsi", 0, 0)
	if err != nil || len(ids) == 0 {
		t.Fatalf("QueryItemCtx = %v, %v", ids, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ids, _ = snap.QueryItemCtx(ctx, ids[:0], "pepsi", 0, 0)
	}); allocs != 0 {
		t.Fatalf("QueryItemCtx into a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestQueryItemComputeZeroAllocs pins QueryItem on a snapshot opened from a
// .nsnap file, whose postings are the file's bytes rather than the heap's.
func TestQueryItemComputeZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	path := filepath.Join(t.TempDir(), "snap.nsnap")
	if err := WriteSnapshotFile(path, testSnapshot(t), 1); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]RuleID, 0, snap.Len())
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	}); allocs != 0 {
		t.Fatalf("QueryItem on an opened snapshot: %v allocs/op, want 0", allocs)
	}
}

func TestScoreZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]RuleID, 0, snap.Len())
	basket := []string{"pepsi", "chips"}
	// Warm the scratch pool.
	dst = snap.Score(dst[:0], basket, 0, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.Score(dst[:0], basket, 0, 0)
	}); allocs != 0 {
		t.Fatalf("Score: %v allocs/op, want 0", allocs)
	}
}

func TestExpandZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]string, 0, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.Expand(dst[:0], "pepsi")
	}); allocs != 0 {
		t.Fatalf("Expand: %v allocs/op, want 0", allocs)
	}
}

// discardWriter is a ResponseWriter that allocates nothing of its own, so
// the handler pins below count the handler.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be read again after Seek(0, 0).
type rewindBody struct{ *strings.Reader }

func (rewindBody) Close() error { return nil }

// handlerAllocs measures one request through Server.Handler() — admission,
// metrics and recovery wrappers included — in steady state.
func handlerAllocs(t *testing.T, method, target, body string) float64 {
	t.Helper()
	skipUnderRace(t)
	h := serveSnapshot(t, testSnapshot(t))
	rb := rewindBody{strings.NewReader(body)}
	req := httptest.NewRequest(method, target, nil)
	req.Body = rb
	w := &discardWriter{header: http.Header{}}
	run := func() {
		_, _ = rb.Seek(0, io.SeekStart)
		clear(w.header)
		h.ServeHTTP(w, req)
	}
	run() // warm the pools
	if got := w.header.Get("Content-Length"); got == "" || got == "0" {
		t.Fatalf("%s %s answered no body (Content-Length %q)", method, target, got)
	}
	return testing.AllocsPerRun(200, run)
}

// The two read handlers render by concatenation into pooled buffers, so
// what a request allocates does not grow with the rules it returns. What is
// left is fixed per request: the wrappers' status writer, the parsed query
// string or the decoded JSON request body (10 of /score's 18), and the
// response's header values. The ceilings are the numbers reached when the
// handlers stopped building a Go value per rule; the per-request encoder
// they replaced took 24 for this three-rule /rules reply and 41 for this
// three-match /score reply, and more with every rule.

func TestHandlerRulesAllocCeiling(t *testing.T) {
	const ceiling = 7
	if allocs := handlerAllocs(t, http.MethodGet, "/rules?item=pepsi", ""); allocs > ceiling {
		t.Fatalf("GET /rules: %v allocs/op, ceiling %d", allocs, ceiling)
	}
}

func TestHandlerScoreAllocCeiling(t *testing.T) {
	const ceiling = 18
	if allocs := handlerAllocs(t, http.MethodPost, "/score", `{"basket":["pepsi","chips"]}`); allocs > ceiling {
		t.Fatalf("POST /score: %v allocs/op, ceiling %d", allocs, ceiling)
	}
}

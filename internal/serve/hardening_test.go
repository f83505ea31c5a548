package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/fault"
	"negmine/internal/report"
	"negmine/internal/rulestore"
)

// --- panic recovery -------------------------------------------------------

func TestHandlerPanicRecovered(t *testing.T) {
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(1), nil, Meta{}), nil
	})
	h := srv.Handler()

	off := fault.Enable(PointHandler, fault.Panic("handler blew up"), fault.OnHit(1))
	defer off()
	code, body := get(t, h, "/rules?item=pepsi")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: code = %d, want 500 (%s)", code, body)
	}
	if got := srv.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The process survived; the very next request serves normally.
	if code, body := get(t, h, "/rules?item=pepsi"); code != http.StatusOK {
		t.Fatalf("request after panic: %d %s", code, body)
	}

	// The counter is exported through /metrics.
	_, body = get(t, h, "/metrics")
	var doc struct {
		Panics int64 `json:"panics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Panics != 1 {
		t.Fatalf("metrics panics = %d (err %v)\n%s", doc.Panics, err, body)
	}
}

func TestHandlerFaultError(t *testing.T) {
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(1), nil, Meta{}), nil
	})
	defer fault.Enable(PointHandler, fault.Error("injected outage"))()
	if code, _ := get(t, srv.Handler(), "/healthz"); code != http.StatusInternalServerError {
		t.Fatalf("handler fault: code = %d, want 500", code)
	}
}

// --- request deadlines ----------------------------------------------------

func TestRequestTimeoutAbortsQuery(t *testing.T) {
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			return BuildSnapshot(testStore(), testTaxonomy(t), Meta{}), nil
		},
		WithLogger(func(string, ...any) {}),
		WithRequestTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	// Handler sleep guarantees the deadline expires before the query runs.
	defer fault.Enable(PointHandler, fault.Sleep(5*time.Millisecond))()
	code, body := get(t, srv.Handler(), "/rules?item=pepsi")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: code = %d, want 503 (%s)", code, body)
	}
	code, body = post(t, srv.Handler(), "/score", `{"basket":["pepsi"]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline on /score: code = %d, want 503 (%s)", code, body)
	}
}

func TestQueryCtxCancelled(t *testing.T) {
	snap := BuildSnapshot(bigStore(2000), nil, Meta{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.QueryItemCtx(ctx, nil, "pepsi", 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryItemCtx on cancelled ctx: %v", err)
	}
	if _, err := snap.ScoreCtx(ctx, nil, []string{"pepsi"}, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScoreCtx on cancelled ctx: %v", err)
	}
}

// bigStore builds a store with n distinct rules on one antecedent, so its
// posting list is long enough to cross ctxCheckEvery.
func bigStore(n int) *rulestore.Store {
	rep := &report.NegativeReport{}
	for i := 0; i < n; i++ {
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent:   []string{"pepsi"},
			Consequent:   []string{fmt.Sprintf("c%d", i)},
			RuleInterest: 0.5,
		})
	}
	return rulestore.FromReport(rep)
}

// --- load hardening -------------------------------------------------------

func TestPanickingLoaderBecomesReloadError(t *testing.T) {
	var gen atomic.Int64
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		if gen.Add(1) > 1 {
			panic("loader bug")
		}
		return BuildSnapshot(storeN(1), nil, Meta{}), nil
	})
	err := srv.Reload(context.Background())
	if err == nil || !strings.Contains(err.Error(), "load panicked") {
		t.Fatalf("Reload with panicking loader: %v", err)
	}
	// Old snapshot still serves.
	if code, body := get(t, srv.Handler(), "/rules?item=pepsi"); code != http.StatusOK || !strings.Contains(body, "gen-1") {
		t.Fatalf("after panicking reload: %d %s", code, body)
	}
}

func TestNilSnapshotLoaderRejected(t *testing.T) {
	_, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) { return nil, nil },
		WithLogger(func(string, ...any) {}))
	if err == nil || !strings.Contains(err.Error(), "nil snapshot") {
		t.Fatalf("nil-snapshot loader: %v", err)
	}
}

func TestSwapFaultKeepsOldSnapshot(t *testing.T) {
	var gen atomic.Int64
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(int(gen.Add(1))), nil, Meta{}), nil
	})
	defer fault.Enable(PointSwap, fault.Error("died before swap"))()
	if err := srv.Reload(context.Background()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Reload under swap fault: %v", err)
	}
	if _, body := get(t, srv.Handler(), "/rules?item=pepsi"); !strings.Contains(body, "gen-1") {
		t.Fatalf("snapshot advanced despite failed swap: %s", body)
	}
}

// --- watcher state machine ------------------------------------------------

// watchFixture runs WatchWith against a temp file polled every interval
// and returns the file path; the watcher stops at test teardown.
func watchFixture(t *testing.T, srv *Server, interval time.Duration) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go srv.WatchWith(ctx, path, interval)
	return path
}

// writeRenamed replaces path with content the way a report writer does,
// by renaming a complete file over it, so no poll sees it half-written.
func writeRenamed(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path+".tmp", []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatchReloadsOnSettledChange(t *testing.T) {
	var gen atomic.Int64
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(int(gen.Add(1))), nil, Meta{}), nil
	})
	path := watchFixture(t, srv, 3*time.Millisecond)
	// Let the watcher observe the path as missing first, so the write below
	// is seen as a change (not as the startup version).
	waitFor(t, "missing state", func() bool { return srv.metrics.WatchState() == watchMissing })

	// File appears (missing → settling → reload once stable).
	if err := os.WriteFile(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reload after file appears", func() bool { return gen.Load() >= 2 })
	waitFor(t, "watching state", func() bool { return srv.metrics.WatchState() == watchWatching })

	// Unchanged file: no further reloads.
	before := gen.Load()
	time.Sleep(30 * time.Millisecond)
	if gen.Load() != before {
		t.Fatalf("reloaded %d times with no file change", gen.Load()-before)
	}
}

func TestWatchMissingFileIsQuietState(t *testing.T) {
	var logs atomic.Int64
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) { return BuildSnapshot(storeN(1), nil, Meta{}), nil },
		WithLogger(func(format string, args ...any) { logs.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	watchFixture(t, srv, 2*time.Millisecond)

	waitFor(t, "missing state", func() bool { return srv.metrics.WatchState() == watchMissing })
	logs.Store(0)
	time.Sleep(40 * time.Millisecond) // ~20 ticks on a missing file
	if n := logs.Load(); n != 0 {
		t.Fatalf("missing file logged %d times after the transition, want 0", n)
	}
}

// TestWatchBreakerOpensAndRecovers pins the failed state: a version that
// fails to load is tried once and not again while the file stays as it is,
// and a new version loads.
func TestWatchBreakerOpensAndRecovers(t *testing.T) {
	var loads atomic.Int64
	var failing atomic.Bool
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			n := loads.Add(1)
			if failing.Load() {
				return nil, errors.New("bad report")
			}
			return BuildSnapshot(storeN(int(n)), nil, Meta{}), nil
		},
		WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	path := watchFixture(t, srv, 2*time.Millisecond)
	waitFor(t, "missing state", func() bool { return srv.metrics.WatchState() == watchMissing })

	writeRenamed(t, path, "broken")
	waitFor(t, "failed state", func() bool { return srv.metrics.WatchState() == watchFailed })

	// The failing version is not retried: ~15 more polls, no more loads.
	time.Sleep(30 * time.Millisecond)
	if n := loads.Load(); n != 2 {
		t.Fatalf("loader ran %d times on the bad version, want 1", n-1)
	}

	// A new version loads.
	failing.Store(false)
	writeRenamed(t, path, "fixed-version")
	waitFor(t, "recovery", func() bool { return srv.metrics.WatchState() == watchWatching })
	if n := loads.Load(); n != 3 {
		t.Fatalf("loads = %d, want 3 (startup, bad version, new version)", n)
	}
}

// TestWatchDebouncesInProgressWrite steps the watcher's polls by hand: a
// file that grows between every two polls is never loaded, and once the
// writer stops it loads exactly once.
func TestWatchDebouncesInProgressWrite(t *testing.T) {
	var gen atomic.Int64
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(int(gen.Add(1))), nil, Meta{}), nil
	})
	path := filepath.Join(t.TempDir(), "report.json")
	ticks := make(chan time.Time)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.watch(ctx, path, ticks)
	waitFor(t, "missing state", func() bool { return srv.metrics.WatchState() == watchMissing })

	// poll runs one poll and waits until the watcher has acted on it: the
	// watcher publishes its state once per poll, after acting.
	poll := func() {
		srv.metrics.setWatch("")
		select {
		case ticks <- time.Now():
		case <-time.After(5 * time.Second):
			t.Fatal("watcher stopped polling")
		}
		waitFor(t, "poll", func() bool { return srv.metrics.WatchState() != "" })
	}

	// A slow writer: the file grows between every two polls.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := f.WriteString("chunk\n"); err != nil {
			t.Fatal(err)
		}
		poll()
		if gen.Load() > 1 {
			t.Fatal("reloaded while the file was still being written")
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Once the writer stops, the stable version reloads exactly once.
	for i := 0; i < 5; i++ {
		poll()
	}
	if n := gen.Load(); n != 2 {
		t.Fatalf("loads = %d after the writer stopped, want 2", n)
	}
}

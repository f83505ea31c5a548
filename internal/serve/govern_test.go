package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/fault"
	"negmine/internal/govern"
)

// --- POST body bounds -------------------------------------------------------

func newBoundedServer(t *testing.T, maxBody int64) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			return BuildSnapshot(testStore(), testTaxonomy(t), Meta{}), nil
		},
		WithLogger(func(string, ...any) {}),
		WithMaxBodyBytes(maxBody))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestScoreBodyBound413(t *testing.T) {
	h := newBoundedServer(t, 1024).Handler()

	// Oversized body: clean 413 JSON naming the bound, not a hang or a 400.
	big := `{"basket":["pepsi","` + strings.Repeat("x", 4096) + `"]}`
	code, body := post(t, h, "/score", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /score body: code = %d, want 413 (%s)", code, body)
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("413 body is not JSON: %v\n%s", err, body)
	}
	if !strings.Contains(resp.Error, "1024 bytes") {
		t.Fatalf("413 error does not name the bound: %q", resp.Error)
	}

	// A body within the bound still serves.
	if code, body := post(t, h, "/score", `{"basket":["pepsi"]}`); code != http.StatusOK {
		t.Fatalf("small /score body under bound: %d %s", code, body)
	}
}

func TestReloadBodyBound413(t *testing.T) {
	h := newBoundedServer(t, 512).Handler()

	code, body := post(t, h, "/reload?wait=1", strings.Repeat("y", 2048))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /reload body: code = %d, want 413 (%s)", code, body)
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || !strings.Contains(resp.Error, "512 bytes") {
		t.Fatalf("413 error = %q (err %v)", resp.Error, err)
	}

	// Empty body (the normal client) still reloads.
	if code, body := post(t, h, "/reload?wait=1", ""); code != http.StatusOK {
		t.Fatalf("/reload with empty body: %d %s", code, body)
	}
}

func TestBodyBoundDisabled(t *testing.T) {
	h := newBoundedServer(t, -1).Handler()
	big := `{"basket":["pepsi","` + strings.Repeat("x", 4096) + `"]}`
	if code, body := post(t, h, "/score", big); code != http.StatusOK {
		t.Fatalf("disabled bound rejected a 4KiB body: %d %s", code, body)
	}
}

// --- watcher state machine through /metrics ---------------------------------

// metricsWatchDoc is the slice of the /metrics document these tests assert
// on: the watch block plus reload outcome counters.
type metricsWatchDoc struct {
	Reloads struct {
		OK     int64 `json:"ok"`
		Failed int64 `json:"failed"`
	} `json:"reloads"`
	Watch *struct {
		State string `json:"state"`
	} `json:"watch"`
}

func scrapeWatch(t *testing.T, h http.Handler) metricsWatchDoc {
	t.Helper()
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	var doc metricsWatchDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad /metrics JSON: %v\n%s", err, body)
	}
	return doc
}

// TestWatchBreakerExportedInMetrics walks the failed state's lifecycle —
// missing → a failing version is tried once → a fixed version loads —
// asserting every stage through the /metrics HTTP document rather than the
// in-process accessor.
func TestWatchBreakerExportedInMetrics(t *testing.T) {
	var loads atomic.Int64
	var failing atomic.Bool
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			n := loads.Add(1)
			if failing.Load() {
				return nil, errOf("bad report")
			}
			return BuildSnapshot(storeN(int(n)), nil, Meta{}), nil
		},
		WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	failing.Store(true)
	path := watchFixture(t, srv, 2*time.Millisecond)
	waitFor(t, "missing state in /metrics", func() bool {
		d := scrapeWatch(t, h)
		return d.Watch != nil && d.Watch.State == watchMissing
	})

	writeRenamed(t, path, "broken")
	waitFor(t, "failed state in /metrics", func() bool {
		d := scrapeWatch(t, h)
		return d.Watch != nil && d.Watch.State == watchFailed
	})
	// ~15 more polls of the unchanged bad version: it is not tried again.
	time.Sleep(30 * time.Millisecond)
	if d := scrapeWatch(t, h); d.Watch.State != watchFailed || d.Reloads.Failed != 1 {
		t.Fatalf("after the bad version settled: %+v, want state failed and 1 failed reload", d)
	}

	// Recovery: a new version loads.
	failing.Store(false)
	writeRenamed(t, path, "fixed-version")
	waitFor(t, "recovered watching state in /metrics", func() bool {
		d := scrapeWatch(t, h)
		return d.Watch != nil && d.Watch.State == watchWatching && d.Reloads.OK == 1
	})
	if n := loads.Load(); n != 3 {
		t.Fatalf("loads = %d, want 3 (startup, bad version, new version)", n)
	}
}

// errOf avoids importing errors just for New in this file's loaders.
func errOf(msg string) error { return &watchLoadErr{msg} }

type watchLoadErr struct{ msg string }

func (e *watchLoadErr) Error() string { return e.msg }

// --- admission under a slow reload ------------------------------------------

// TestSlowReloadDoesNotShrinkAdmission pins the fixed limit: one slow
// synchronous reload must not cost later reads their slots. Four reads
// against MaxConcurrent 4 all run at once, whatever came before them.
func TestSlowReloadDoesNotShrinkAdmission(t *testing.T) {
	var loads atomic.Int64
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			if loads.Add(1) > 1 {
				time.Sleep(150 * time.Millisecond) // a slow re-mine
			}
			return BuildSnapshot(testStore(), testTaxonomy(t), Meta{}), nil
		},
		WithLogger(func(string, ...any) {}),
		WithGovernor(govern.NewController(govern.Config{MaxConcurrent: 4, MaxQueue: 1})))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if code, body := post(t, h, "/reload?wait=1", ""); code != http.StatusOK {
		t.Fatalf("/reload?wait=1 = %d %s", code, body)
	}

	// Each read holds its slot for 50 ms, so the four overlap.
	defer fault.Enable(PointHandler, fault.Sleep(50*time.Millisecond))()
	codes := make([]int, 4)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = get(t, h, "/rules?item=pepsi")
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("read %d after a slow reload = %d, want 200 (codes %v)", i, code, codes)
		}
	}
}

// --- overload soak ----------------------------------------------------------

// soakDuration is how long TestOverloadSoak drives 4× load: a quick burst by
// default, 30s when CI sets NEGMINE_SOAK.
func soakDuration() time.Duration {
	if v := os.Getenv("NEGMINE_SOAK"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 300 * time.Millisecond
}

// TestOverloadSoak proves graceful degradation under sustained overload:
// with 4 concurrency slots and an 8-deep queue, 48 synchronous clients are
// roughly 4× what the server can hold. Every response must be 200 or a 503
// carrying Retry-After — never a hang, a drop, or a surprise status — shed
// counters must rise monotonically, admitted latency stays under the request
// deadline, and no goroutines leak once the storm passes.
func TestOverloadSoak(t *testing.T) {
	const (
		maxConcurrent = 4
		maxQueue      = 8
		scoreWorkers  = 40
		rulesWorkers  = 8
		reqTimeout    = time.Second
	)
	gov := govern.NewController(govern.Config{
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxQueue,
	})
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			return BuildSnapshot(testStore(), testTaxonomy(t), Meta{}), nil
		},
		WithLogger(func(string, ...any) {}),
		WithGovernor(gov),
		WithRequestTimeout(reqTimeout))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Every admitted request holds its slot for ~2ms so the queue actually
	// fills; shed requests return immediately and the clients retry at once,
	// keeping the offered load pinned at ~4× capacity for the whole soak.
	defer fault.Enable(PointHandler, fault.Sleep(2*time.Millisecond))()

	goroutinesBefore := runtime.NumGoroutine()
	deadline := time.Now().Add(soakDuration())

	var (
		mu        sync.Mutex
		okLatency []time.Duration
		ok200     atomic.Int64
		ok503     atomic.Int64
		rules200  atomic.Int64
	)
	hit := func(fire func() (int, string), isScore bool) {
		start := time.Now()
		code, body := fire()
		switch code {
		case http.StatusOK:
			ok200.Add(1)
			if !isScore {
				rules200.Add(1)
			}
			if isScore {
				mu.Lock()
				okLatency = append(okLatency, time.Since(start))
				mu.Unlock()
			}
		case http.StatusServiceUnavailable:
			ok503.Add(1)
			// A brief pause before retrying keeps the offered load far above
			// capacity without the shed loop starving admitted handlers of
			// CPU (real clients honor Retry-After; a hot spin loop does not).
			time.Sleep(500 * time.Microsecond)
		default:
			t.Errorf("overload produced status %d (%s)", code, body)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < scoreWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				hit(func() (int, string) {
					code, body := postRec(t, h, "/score", `{"basket":["pepsi"]}`)
					return code, body
				}, true)
			}
		}()
	}
	// Reads ride along: /rules must keep answering whenever a slot frees.
	for i := 0; i < rulesWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				hit(func() (int, string) { return get(t, h, "/rules?item=pepsi") }, false)
			}
		}()
	}

	// Shed counters must only ever go up, sampled while the storm rages.
	monotoneDone := make(chan struct{})
	go func() {
		defer close(monotoneDone)
		var prev int64
		for time.Now().Before(deadline) {
			cur := gov.Stats().Shed()
			if cur < prev {
				t.Errorf("shed counter went backwards: %d -> %d", prev, cur)
			}
			prev = cur
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-monotoneDone

	total := ok200.Load() + ok503.Load()
	if total == 0 {
		t.Fatal("soak issued no requests")
	}
	st := gov.Stats()
	sheds := st.Shed()
	if sheds == 0 {
		t.Fatalf("4x overload shed nothing (%d requests, %d admitted)", total, ok200.Load())
	}
	if rules200.Load() == 0 {
		t.Error("cheap /rules never served during overload")
	}
	if st.Admitted == 0 || st.QueueHighWater == 0 {
		t.Errorf("stats = %+v, want admissions and a non-empty queue high-water", st)
	}

	// Admitted p99 stays under the request deadline — shed fast, serve fast.
	mu.Lock()
	lat := append([]time.Duration(nil), okLatency...)
	mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if p99 := lat[len(lat)*99/100]; p99 >= reqTimeout {
			t.Errorf("admitted p99 = %v, want < %v", p99, reqTimeout)
		}
	}

	// The governor block is visible to operators even after the storm.
	_, body := get(t, h, "/metrics")
	var doc struct {
		Govern *struct {
			ShedTotal int64 `json:"shedTotal"`
			Admitted  int64 `json:"admitted"`
		} `json:"govern"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Govern == nil {
		t.Fatalf("metrics govern block missing (err %v)\n%s", err, body)
	}
	if doc.Govern.ShedTotal < sheds || doc.Govern.Admitted == 0 {
		t.Errorf("govern block = %+v, want shedTotal >= %d and admissions", doc.Govern, sheds)
	}

	// No goroutine leak: everything the soak started winds down.
	waitFor(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= goroutinesBefore+8
	})
}

// postRec is post with the Retry-After contract enforced on every 503.
func postRec(t *testing.T, h http.Handler, url, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
	if rec.Code == http.StatusServiceUnavailable {
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Errorf("503 without Retry-After header: %s", rec.Body.String())
		}
	}
	return rec.Code, rec.Body.String()
}

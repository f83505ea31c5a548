package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
)

// storeN builds a one-rule store whose consequent encodes generation n, so
// tests can tell which snapshot served a response.
func storeN(n int) *rulestore.Store {
	return rulestore.FromReport(&report.NegativeReport{
		Rules: []report.NegativeRuleRecord{
			{Antecedent: []string{"pepsi"}, Consequent: []string{fmt.Sprintf("gen-%d", n)}, RuleInterest: 0.9},
		},
	})
}

func newTestServer(t *testing.T, load LoadFunc) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(), load, WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

func post(t *testing.T, h http.Handler, url, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func TestHandlerRules(t *testing.T) {
	tax := testTaxonomy(t)
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), tax, Meta{Source: "test"}), nil
	})
	h := srv.Handler()

	code, body := get(t, h, "/rules?item=pepsi&minri=0.5")
	if code != http.StatusOK {
		t.Fatalf("GET /rules: %d %s", code, body)
	}
	var resp struct {
		Item     string   `json:"item"`
		Expanded []string `json:"expanded"`
		Rules    []struct {
			Consequent   []string `json:"consequent"`
			RuleInterest float64  `json:"ruleInterest"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(resp.Expanded) != 3 || resp.Expanded[1] != "soft-drinks" {
		t.Fatalf("expanded = %v", resp.Expanded)
	}
	if len(resp.Rules) != 2 || resp.Rules[0].Consequent[0] != "chips" || resp.Rules[0].RuleInterest != 0.8 {
		t.Fatalf("rules = %+v", resp.Rules)
	}

	// Validation.
	if code, _ := get(t, h, "/rules"); code != http.StatusBadRequest {
		t.Fatalf("missing item: %d", code)
	}
	if code, _ := get(t, h, "/rules?item=x&minri=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad minri: %d", code)
	}
	if code, _ := post(t, h, "/rules?item=x", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /rules: %d", code)
	}
}

func TestHandlerScore(t *testing.T) {
	tax := testTaxonomy(t)
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), tax, Meta{}), nil
	})
	h := srv.Handler()

	code, body := post(t, h, "/score", `{"basket":["pepsi"],"minRI":0.7}`)
	if code != http.StatusOK {
		t.Fatalf("POST /score: %d %s", code, body)
	}
	var resp struct {
		Matches []struct {
			Consequent []string          `json:"consequent"`
			Triggers   map[string]string `json:"triggers"`
		} `json:"matches"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Consequent[0] != "chips" {
		t.Fatalf("matches = %+v", resp.Matches)
	}
	if resp.Matches[0].Triggers["soft-drinks"] != "pepsi" {
		t.Fatalf("triggers = %v", resp.Matches[0].Triggers)
	}

	// Validation.
	if code, _ := post(t, h, "/score", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty basket: %d", code)
	}
	if code, _ := post(t, h, "/score", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	if code, _ := get(t, h, "/score"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /score: %d", code)
	}
}

func TestHandlerHealthzAndMetrics(t *testing.T) {
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(testStore(), nil, Meta{Source: "test"}), nil
	})
	h := srv.Handler()

	code, body := get(t, h, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("GET /healthz: %d %s", code, body)
	}

	// Generate some traffic, then check it shows up in /metrics.
	get(t, h, "/rules?item=pepsi")
	get(t, h, "/rules?item=pepsi")
	get(t, h, "/nope")
	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	var m struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
			Latency  struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"endpoints"`
		Snapshot struct {
			Rules      int     `json:"rules"`
			AgeSeconds float64 `json:"age_seconds"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad metrics JSON: %v\n%s", err, body)
	}
	if m.Endpoints["rules"].Requests != 2 || m.Endpoints["rules"].Latency.Count != 2 {
		t.Fatalf("rules endpoint metrics = %+v", m.Endpoints["rules"])
	}
	if m.Endpoints["other"].Errors != 1 {
		t.Fatalf("404s not counted as errors: %+v", m.Endpoints["other"])
	}
	if m.Snapshot.Rules != 3 {
		t.Fatalf("snapshot info = %+v", m.Snapshot)
	}
}

func TestReloadSwapsSnapshot(t *testing.T) {
	var gen atomic.Int64
	tax := testTaxonomy(t)
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(int(gen.Add(1))), tax, Meta{}), nil
	})
	h := srv.Handler()

	_, body := get(t, h, "/rules?item=pepsi")
	if !strings.Contains(body, "gen-1") {
		t.Fatalf("initial snapshot: %s", body)
	}
	code, body := post(t, h, "/reload?wait=1", "")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("POST /reload?wait=1: %d %s", code, body)
	}
	if _, body = get(t, h, "/rules?item=pepsi"); !strings.Contains(body, "gen-2") {
		t.Fatalf("after reload: %s", body)
	}
}

func TestFailedReloadKeepsSnapshotAndSurfacesError(t *testing.T) {
	var calls atomic.Int64
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		if calls.Add(1) > 1 {
			return nil, fmt.Errorf("synthetic mining failure")
		}
		return BuildSnapshot(storeN(1), testTaxonomy(t), Meta{}), nil
	})
	h := srv.Handler()

	code, body := post(t, h, "/reload?wait=1", "")
	if code != http.StatusInternalServerError || !strings.Contains(body, "synthetic mining failure") {
		t.Fatalf("failed reload: %d %s", code, body)
	}
	// Old snapshot still serves.
	if _, body := get(t, h, "/rules?item=pepsi"); !strings.Contains(body, "gen-1") {
		t.Fatalf("old snapshot gone: %s", body)
	}
	// Failure is surfaced in /metrics.
	_, body = get(t, h, "/metrics")
	if !strings.Contains(body, `"failed": 1`) || !strings.Contains(body, "synthetic mining failure") {
		t.Fatalf("metrics missing reload failure: %s", body)
	}
	// A later successful reload clears the error.
	calls.Store(0)
	if code, _ := post(t, h, "/reload?wait=1", ""); code != http.StatusOK {
		t.Fatalf("recovery reload failed")
	}
	_, body = get(t, h, "/metrics")
	if strings.Contains(body, "synthetic mining failure") {
		t.Fatalf("stale reload error still in metrics: %s", body)
	}
}

func TestInitialLoadFailure(t *testing.T) {
	_, err := NewServer(context.Background(), func(context.Context) (*Snapshot, error) {
		return nil, fmt.Errorf("no rules")
	}, WithLogger(func(string, ...any) {}))
	if err == nil || !strings.Contains(err.Error(), "no rules") {
		t.Fatalf("NewServer error = %v", err)
	}
}

// TestConcurrentSwapUnderLoad hammers /rules and /score from many
// goroutines while /reload swaps snapshots in a tight loop. Run with -race
// (CI does): it proves readers never block on, or tear with, the swap.
// Every response must be internally consistent — a whole gen-N rule set,
// never a mix.
func TestConcurrentSwapUnderLoad(t *testing.T) {
	var gen atomic.Int64
	tax := testTaxonomy(t)
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		return BuildSnapshot(storeN(int(gen.Add(1))), tax, Meta{}), nil
	})
	h := srv.Handler()

	const (
		readers = 8
		queries = 300
		reloads = 50
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	checkBody := func(kind, body string) error {
		if !strings.Contains(body, "gen-") {
			return fmt.Errorf("%s response lost its rule: %s", kind, body)
		}
		return nil
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				if r%2 == 0 {
					code, body := get(t, h, "/rules?item=pepsi")
					if code != http.StatusOK {
						errc <- fmt.Errorf("/rules status %d", code)
						return
					}
					if err := checkBody("/rules", body); err != nil {
						errc <- err
						return
					}
				} else {
					code, body := post(t, h, "/score", `{"basket":["pepsi"]}`)
					if code != http.StatusOK {
						errc <- fmt.Errorf("/score status %d", code)
						return
					}
					if err := checkBody("/score", body); err != nil {
						errc <- err
						return
					}
				}
				if q%20 == 0 {
					get(t, h, "/metrics")
					get(t, h, "/healthz")
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			code, body := post(t, h, "/reload?wait=1", "")
			if code != http.StatusOK {
				errc <- fmt.Errorf("/reload status %d: %s", code, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// All reloads landed: the final snapshot is the last generation built.
	if got := srv.Snapshot().Rules()[0].Consequent[0]; got != fmt.Sprintf("gen-%d", gen.Load()) {
		t.Fatalf("final snapshot %s, want gen-%d", got, gen.Load())
	}
	var buf bytes.Buffer
	if err := srv.Metrics().WriteJSON(&buf, srv.Snapshot()); err != nil {
		t.Fatalf("metrics after load: %v", err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf(`"ok": %d`, reloads)) {
		t.Fatalf("expected %d ok reloads:\n%s", reloads, buf.String())
	}
}

// TestSwapUnderLoad hammers a Server with concurrent QueryItem/Score readers
// while reloads swap versioned snapshots underneath them. Every observed
// result must be internally consistent with exactly one snapshot version —
// the atomic-swap contract. Run with -race.
func TestSwapUnderLoad(t *testing.T) {
	// Version v's store has one rule {item} =/=> {v-consequent} per item, so
	// any query result self-identifies its snapshot version.
	buildVersion := func(v int) *rulestore.Store {
		rep := &report.NegativeReport{}
		for i := 0; i < 8; i++ {
			rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
				Antecedent:   []string{fmt.Sprintf("item%d", i)},
				Consequent:   []string{fmt.Sprintf("v%d", v)},
				RuleInterest: 0.5,
			})
		}
		return rulestore.FromReport(rep)
	}
	var version atomic.Int64
	srv := newTestServer(t, func(ctx context.Context) (*Snapshot, error) {
		v := version.Load()
		return BuildSnapshot(buildVersion(int(v)), nil, Meta{Source: fmt.Sprintf("v%d", v)}), nil
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]RuleID, 0, 16)
			basket := []string{"item0", "item3"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				want := snap.Info().Source // "vN"
				item := fmt.Sprintf("item%d", i%8)
				dst = snap.QueryItem(dst[:0], item, 0, 0)
				if len(dst) != 1 {
					t.Errorf("reader %d: QueryItem(%s) returned %d rules, want 1", g, item, len(dst))
					return
				}
				if got := snap.Entry(dst[0]).Consequent[0]; got != want {
					t.Errorf("reader %d: rule from snapshot %s has consequent %s (torn snapshot)", g, want, got)
					return
				}
				dst = snap.Score(dst[:0], basket, 0, 0)
				for _, id := range dst {
					if got := snap.Entry(id).Consequent[0]; got != want {
						t.Errorf("reader %d: Score on snapshot %s saw %s", g, want, got)
						return
					}
				}
			}
		}(g)
	}
	for v := 1; v <= 30; v++ {
		version.Store(int64(v))
		if err := srv.Reload(context.Background()); err != nil {
			t.Fatalf("reload v%d: %v", v, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTriggerReloadAsync(t *testing.T) {
	var gen atomic.Int64
	release := make(chan struct{})
	srv := newTestServer(t, func(context.Context) (*Snapshot, error) {
		if gen.Add(1) > 1 {
			<-release // hold the reload in flight
		}
		return BuildSnapshot(storeN(int(gen.Load())), testTaxonomy(t), Meta{}), nil
	})
	h := srv.Handler()

	code, body := post(t, h, "/reload", "")
	if code != http.StatusAccepted || !strings.Contains(body, "reloading") {
		t.Fatalf("POST /reload: %d %s", code, body)
	}
	// While the first reload is blocked, further triggers coalesce.
	for i := 0; i < 10 && !srv.reloading.Load(); i++ {
		// Wait for the background goroutine to enter Reload.
		post(t, h, "/rules?item=x", "") // arbitrary traffic; gives the scheduler a beat
	}
	close(release)
	// Queries keep the old snapshot until the swap lands; they never hang.
	if code, _ := get(t, h, "/rules?item=pepsi"); code != http.StatusOK {
		t.Fatalf("query during reload: %d", code)
	}
}

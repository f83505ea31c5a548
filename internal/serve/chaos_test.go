package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/fault"
	"negmine/internal/report"
	"negmine/internal/rulestore"
)

// chaosPointLoad lets the chaos loader fail probabilistically, independent
// of the serve-internal failpoints.
const chaosPointLoad = "chaos.load"

// chaosStore builds a generation-tagged store: every rule's consequent
// carries the generation, so a response mixing generations would be proof
// of a torn snapshot.
func chaosStore(gen int, rules int) *rulestore.Store {
	rep := &report.NegativeReport{}
	for i := 0; i < rules; i++ {
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent:   []string{"pepsi"},
			Consequent:   []string{fmt.Sprintf("gen%d-rule%d", gen, i)},
			RuleInterest: 0.9 - float64(i)*0.001,
		})
	}
	return rulestore.FromReport(rep)
}

// TestChaosReloadUnderFire is the headline robustness test: failpoints fire
// across snapshot load and swap while client goroutines hammer every
// endpoint and a reloader rebuilds continuously. Run under -race in CI.
//
// Invariants checked:
//   - no request ever fails (every /rules, /score, /healthz, /metrics is 200),
//   - no response ever mixes rules from two generations (snapshots swap
//     atomically, never serve partially built state),
//   - a failed re-mine keeps the previous snapshot serving and is counted,
//   - both reload outcomes actually occurred, so the test exercised what it
//     claims to.
func TestChaosReloadUnderFire(t *testing.T) {
	const (
		clients    = 8
		reloads    = 40
		rulesPer   = 50
		loadFailP  = 0.3
		swapSleep  = 200 * time.Microsecond
		loadsSleep = time.Millisecond
	)

	var gen atomic.Int64
	load := func(ctx context.Context) (*Snapshot, error) {
		if err := fault.Hit(chaosPointLoad); err != nil {
			return nil, err
		}
		// A slow build stretches the window between "old snapshot still
		// serving" and "new snapshot ready".
		time.Sleep(loadsSleep)
		return BuildSnapshot(chaosStore(int(gen.Add(1)), rulesPer), nil, Meta{}), nil
	}

	srv, err := NewServer(context.Background(), load, WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Arm the chaos: loads fail with probability loadFailP, and the swap
	// window is stretched so torn-snapshot bugs would have room to show.
	offLoad := fault.Enable(chaosPointLoad, fault.Error("chaotic load failure"), fault.Prob(loadFailP, 42))
	defer offLoad()
	offSwap := fault.Enable(PointSwap, fault.Sleep(swapSleep))
	defer offSwap()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	// Client goroutines: hammer all read endpoints and check invariants.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=pepsi", nil))
					if rec.Code != http.StatusOK {
						fail("client %d: /rules = %d: %s", c, rec.Code, rec.Body.String())
						return
					}
					var resp struct {
						Rules []struct {
							Consequent []string `json:"consequent"`
						} `json:"rules"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						fail("client %d: bad /rules JSON: %v", c, err)
						return
					}
					if len(resp.Rules) != rulesPer {
						fail("client %d: partial snapshot: %d rules, want %d", c, len(resp.Rules), rulesPer)
						return
					}
					seen := map[string]bool{}
					for _, r := range resp.Rules {
						seen[strings.SplitN(r.Consequent[0], "-", 2)[0]] = true
					}
					if len(seen) != 1 {
						fail("client %d: torn snapshot mixes generations: %v", c, seen)
						return
					}
				case 1:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score",
						strings.NewReader(`{"basket":["pepsi"]}`)))
					if rec.Code != http.StatusOK {
						fail("client %d: /score = %d: %s", c, rec.Code, rec.Body.String())
						return
					}
				case 2:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
					if rec.Code != http.StatusOK {
						fail("client %d: /healthz = %d", c, rec.Code)
						return
					}
				case 3:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
					if rec.Code != http.StatusOK {
						fail("client %d: /metrics = %d", c, rec.Code)
						return
					}
				}
			}
		}(c)
	}

	// The reloader: synchronous reloads, some of which the failpoint kills.
	var okCount, failCount int
	for i := 0; i < reloads && failures.Load() == 0; i++ {
		if err := srv.Reload(context.Background()); err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("reload %d failed for a non-injected reason: %v", i, err)
			}
			failCount++
		} else {
			okCount++
		}
	}
	close(stop)
	wg.Wait()

	if okCount == 0 || failCount == 0 {
		t.Fatalf("chaos did not exercise both outcomes: %d ok, %d failed (tune loadFailP)", okCount, failCount)
	}
	if got := srv.metrics.reloadFail.Load(); got != int64(failCount) {
		t.Errorf("metrics reloadFail = %d, want %d", got, failCount)
	}
	if got := srv.metrics.reloadOK.Load(); got != int64(okCount) {
		t.Errorf("metrics reloadOK = %d, want %d", got, okCount)
	}
	// After the dust settles the daemon serves a complete, single-generation
	// snapshot.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=pepsi", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-chaos /rules = %d", rec.Code)
	}
}

// TestChaosWatchWithFlappingFile drives the watcher against a file that is
// rewritten and corrupted while clients read: the server must always serve
// a full snapshot and end up healthy once the file stabilizes.
func TestChaosWatchWithFlappingFile(t *testing.T) {
	var gen atomic.Int64
	var loadOK atomic.Bool
	loadOK.Store(true)
	srv, err := NewServer(context.Background(),
		func(context.Context) (*Snapshot, error) {
			if !loadOK.Load() {
				return nil, errors.New("source file corrupt")
			}
			return BuildSnapshot(chaosStore(int(gen.Add(1)), 10), nil, Meta{}), nil
		},
		WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := t.TempDir() + "/report.json"
	go srv.WatchWith(ctx, path, 2*time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=pepsi", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("/rules under watch chaos = %d", rec.Code)
				return
			}
		}
	}()

	// Flap the file: write, corrupt (loader fails), write again.
	for round := 0; round < 5; round++ {
		loadOK.Store(round%2 == 0)
		if err := writeFileAndSettle(path, fmt.Sprintf("content-%d", round)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	loadOK.Store(true)
	if err := writeFileAndSettle(path, "final-good-content"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "healthy watcher after flapping", func() bool {
		return srv.metrics.WatchState() == watchWatching
	})
	close(stop)
	wg.Wait()
}

// writeFileAndSettle writes path with distinct content so the watcher's
// size+mtime fingerprint always changes.
func writeFileAndSettle(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

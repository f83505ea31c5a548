package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"negmine"
)

// ingestSoakDuration is how long TestIngestSoak sustains concurrent load: a
// quick burst by default, 30s when CI sets NEGMINE_SOAK.
func ingestSoakDuration() time.Duration {
	if v := os.Getenv("NEGMINE_SOAK"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return 300 * time.Millisecond
}

// TestIngestSoak hammers a streaming daemon with concurrent /ingest writers
// and /rules readers while the pending-transaction trigger re-mines in the
// background. Invariants: every request succeeds, acknowledged TID ranges
// never overlap or repeat, and once the storm stops, one final refresh
// serves exactly the rule set a batch mine of the log produces.
//
// The itemset size is not capped: internal/incr counts against one index
// of the whole log, so minimum support is a fraction of the log however
// small the trailing segment a refresh happens to seal.
func TestIngestSoak(t *testing.T) {
	dir := t.TempDir()
	taxPath, seedPath, baskets := streamFixture(t, dir, 400, 400)

	d, _ := buildDaemon(t, os.Stderr,
		"-ingest-dir", filepath.Join(dir, "log"), "-data", seedPath, "-tax", taxPath,
		"-minsup", "0.15", "-minri", "0.3", "-remine-txns", "50")
	srv, h := d.srv, d.srv.Handler()

	queryItem := baskets[0][0]
	deadline := time.Now().Add(ingestSoakDuration())

	type tidRange struct{ first, last int64 }
	var (
		mu     sync.Mutex
		ranges []tidRange
		wg     sync.WaitGroup
	)
	const writers, readers = 4, 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				lo := rng.Intn(len(baskets) - 5)
				var ir ingestResp
				if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[lo:lo+5]), &ir); code != http.StatusAccepted {
					t.Errorf("/ingest: %d", code)
					return
				}
				if ir.Accepted != 5 || ir.LastTID != ir.FirstTID+4 {
					t.Errorf("ingest response = %+v", ir)
					return
				}
				mu.Lock()
				ranges = append(ranges, tidRange{ir.FirstTID, ir.LastTID})
				mu.Unlock()
			}
		}(int64(w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item="+queryItem, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/rules during soak: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(ranges) == 0 {
		t.Fatal("soak ingested nothing")
	}

	// Acknowledged TID ranges are disjoint and gap-free from the seed on:
	// the log never re-issues or loses an acknowledged transaction.
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].first < ranges[j].first })
	next := int64(401) // seed is TIDs 1..400
	for _, r := range ranges {
		if r.first != next {
			t.Fatalf("TID range starts at %d, want %d (overlap or gap)", r.first, next)
		}
		next = r.last + 1
	}

	// Quiesce: one final synchronous refresh must serve exactly what a batch
	// mine of the full log produces.
	if code := postJSON(t, h, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatal("final /reload failed")
	}
	var sets [][]negmine.Item
	if err := d.ingest.log.Scan(func(tx negmine.Transaction) error {
		sets = append(sets, tx.Items.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(sets)) != next-1 {
		t.Fatalf("log holds %d transactions, acknowledged %d", len(sets), next-1)
	}
	opt := streamOpts()
	res, err := negmine.MineNegative(negmine.FromItemsets(sets...), d.ingest.tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := negmine.NewRuleStore(res, d.ingest.tax.Name)
	if got := srv.Snapshot().Len(); got != want.Len() {
		t.Fatalf("post-soak snapshot serves %d rules, batch mine of the log gives %d", got, want.Len())
	}

	var m ingestMetrics
	getJSON(t, h, "/metrics", &m)
	if m.Ingest == nil || m.Ingest.TxnsAppended != next-1 {
		t.Fatalf("ingest metrics after soak = %+v (want %d appended)", m.Ingest, next-1)
	}
	fmt.Fprintf(os.Stderr, "ingest soak: %d batches, %d txns, %d refreshes\n",
		len(ranges), next-401, m.Ingest.Refreshes)
}

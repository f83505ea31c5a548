package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"negmine"
	"negmine/internal/cli"
	"negmine/internal/datagen"
	"negmine/internal/fault"
	"negmine/internal/incr"
	"negmine/internal/serve"
)

// streamFixture generates a name-keyed streaming dataset: a taxonomy file,
// a seed basket-text file holding the first seedN baskets, and every basket
// as a list of item names (seed plus the remainder, which tests feed to
// POST /ingest).
func streamFixture(t *testing.T, dir string, n, seedN int) (taxPath, seedPath string, baskets [][]string) {
	t.Helper()
	p := datagen.Scaled(datagen.Short(), 50)
	p.NumTransactions = n
	p.Seed = 5
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(func(tx negmine.Transaction) error {
		names := make([]string, len(tx.Items))
		for i, x := range tx.Items {
			names[i] = tax.Name(x)
		}
		baskets = append(baskets, names)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	taxPath = filepath.Join(dir, "tax.txt")
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tax.Write(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	seedPath = filepath.Join(dir, "seed.txt")
	var sb strings.Builder
	for _, b := range baskets[:seedN] {
		sb.WriteString(strings.Join(b, " "))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(seedPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return taxPath, seedPath, baskets
}

// streamOpts mirrors the mining flags the streaming tests pass. The support
// floor is high enough that the smallest segment a test creates keeps a
// non-degenerate local threshold (see internal/incr).
func streamOpts() negmine.NegativeOptions {
	return negmine.NegativeOptions{MinSupport: 0.15, MinRI: 0.3, Algorithm: negmine.Improved}
}

// referenceStore batch-mines the given baskets (by name, against the
// written taxonomy file) through the public API — the ground truth a
// streaming daemon must converge to.
func referenceStore(t *testing.T, taxPath string, baskets [][]string) *negmine.RuleStore {
	t.Helper()
	tax, err := loadTaxonomy(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	dict := tax.Dictionary()
	sets := make([][]negmine.Item, len(baskets))
	for i, b := range baskets {
		sets[i] = dict.InternSet(b...)
	}
	db := negmine.FromItemsets(sets...)
	rep, err := negmine.MineNegativeReport(db, tax, streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	return negmine.RuleStoreFromReport(rep)
}

type ingestResp struct {
	Accepted  int   `json:"accepted"`
	FirstTID  int64 `json:"firstTid"`
	LastTID   int64 `json:"lastTid"`
	Refreshed bool  `json:"refreshTriggered"`
}

type ingestMetrics struct {
	Ingest *struct {
		Segments     int   `json:"segments"`
		TxnsAppended int64 `json:"txnsAppended"`
		PendingTxns  int64 `json:"pendingTxns"`
		Refreshes    int64 `json:"refreshes"`
		NewSegments  int   `json:"lastRefreshNewSegments"`
	} `json:"ingest"`
}

func ingestBody(t *testing.T, baskets [][]string) string {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"baskets": baskets})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStreamingIngestEndToEnd drives the full streaming loop: seed import,
// durable /ingest, an incremental /reload that must converge to the batch
// ground truth, and a daemon restart recovering the same rule set from the
// segment log alone.
func TestStreamingIngestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logDir := filepath.Join(dir, "log")
	taxPath, seedPath, baskets := streamFixture(t, dir, 500, 450)

	d, _ := buildDaemon(t, os.Stderr,
		"-ingest-dir", logDir, "-data", seedPath, "-tax", taxPath,
		"-minsup", "0.15", "-minri", "0.3")
	srv, h := d.srv, d.srv.Handler()

	// The initial snapshot is mined from the seed.
	wantSeed := referenceStore(t, taxPath, baskets[:450])
	if got := srv.Snapshot().Len(); got != wantSeed.Len() {
		t.Fatalf("seed snapshot serves %d rules, reference mined %d", got, wantSeed.Len())
	}

	// Ingest the remaining 10%: TIDs continue after the seed.
	var ir ingestResp
	if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[450:]), &ir); code != http.StatusAccepted {
		t.Fatalf("/ingest: %d", code)
	}
	if ir.Accepted != 50 || ir.FirstTID != 451 || ir.LastTID != 500 {
		t.Fatalf("ingest response = %+v", ir)
	}

	// Unknown names are rejected before anything is appended.
	if code := postJSON(t, h, "/ingest", `{"baskets":[["no-such-item"]]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown item: want 400")
	}

	// Incremental re-mine: the swapped snapshot equals the batch ground
	// truth over seed + delta, and only the delta segment was new.
	if code := postJSON(t, h, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatal("/reload failed")
	}
	wantAll := referenceStore(t, taxPath, baskets)
	if wantAll.Len() == 0 {
		t.Fatal("ground truth mined no rules — the test is vacuous")
	}
	if got := srv.Snapshot().Len(); got != wantAll.Len() {
		t.Fatalf("post-ingest snapshot serves %d rules, reference mined %d", got, wantAll.Len())
	}

	var m ingestMetrics
	getJSON(t, h, "/metrics", &m)
	if m.Ingest == nil {
		t.Fatal("/metrics has no ingest block")
	}
	if m.Ingest.TxnsAppended != 500 || m.Ingest.PendingTxns != 0 {
		t.Fatalf("ingest metrics = %+v", *m.Ingest)
	}
	if m.Ingest.Refreshes != 2 || m.Ingest.NewSegments != 1 {
		t.Fatalf("refresh accounting = %+v (want 2 refreshes, 1 new segment)", *m.Ingest)
	}

	// Restart: a fresh daemon on the same log (no seed this time) recovers
	// every acknowledged transaction and serves the identical rule set.
	if err := d.ingest.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _ := newDaemon(t,
		"-ingest-dir", logDir, "-tax", taxPath, "-minsup", "0.15", "-minri", "0.3")
	if got := srv2.Snapshot().Len(); got != wantAll.Len() {
		t.Fatalf("restarted snapshot serves %d rules, want %d", got, wantAll.Len())
	}
}

// TestStreamingAutoRemine exercises both re-mine triggers: the pending
// transaction count and the periodic timer.
func TestStreamingAutoRemine(t *testing.T) {
	dir := t.TempDir()
	taxPath, seedPath, baskets := streamFixture(t, dir, 400, 360)

	waitRefreshes := func(h http.Handler, want int64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			var m ingestMetrics
			getJSON(t, h, "/metrics", &m)
			if m.Ingest != nil && m.Ingest.Refreshes >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("refreshes stuck below %d: %+v", want, m.Ingest)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	t.Run("txns", func(t *testing.T) {
		_, h := newDaemon(t,
			"-ingest-dir", filepath.Join(dir, "log-txns"), "-data", seedPath, "-tax", taxPath,
			"-minsup", "0.15", "-minri", "0.3", "-remine-txns", "40")
		var ir ingestResp
		if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[360:380]), &ir); code != http.StatusAccepted {
			t.Fatalf("/ingest: %d", code)
		}
		if ir.Refreshed {
			t.Fatal("first batch (20 < 40 pending) triggered a re-mine")
		}
		if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[380:400]), &ir); code != http.StatusAccepted {
			t.Fatalf("/ingest: %d", code)
		}
		if !ir.Refreshed {
			t.Fatal("second batch (40 pending) did not trigger a re-mine")
		}
		waitRefreshes(h, 2)
	})

	t.Run("every", func(t *testing.T) {
		d, cfg := buildDaemon(t, os.Stderr,
			"-ingest-dir", filepath.Join(dir, "log-every"), "-data", seedPath, "-tax", taxPath,
			"-minsup", "0.15", "-minri", "0.3", "-remine-every", "30ms")
		srv, h := d.srv, d.srv.Handler()
		if cfg.remineEvery != 30*time.Millisecond {
			t.Fatalf("remineEvery = %v", cfg.remineEvery)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go d.ingest.remineLoop(ctx, cfg.remineEvery)
		if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[360:400]), nil); code != http.StatusAccepted {
			t.Fatal("/ingest failed")
		}
		waitRefreshes(h, 2)
		want := referenceStore(t, taxPath, baskets)
		// The refresh counter ticks when the mine ends, a moment before the
		// snapshot built from it is swapped in.
		deadline := time.Now().Add(15 * time.Second)
		for srv.Snapshot().Len() != want.Len() {
			if time.Now().After(deadline) {
				t.Fatalf("timer-refreshed snapshot serves %d rules, want %d", srv.Snapshot().Len(), want.Len())
			}
			time.Sleep(25 * time.Millisecond)
		}
	})
}

// TestProbesAnswerDuringRefresh holds a re-mine at the incr.merge failpoint
// for 300 ms and probes the daemon over real HTTP meanwhile: /healthz and
// /metrics read the miner's last stats and must not wait for the refresh (a
// router that waits marks the shard suspect). Afterwards /metrics carries the
// refresh's stage breakdown, which accounts for its wall time.
func TestProbesAnswerDuringRefresh(t *testing.T) {
	dir := t.TempDir()
	taxPath, seedPath, baskets := streamFixture(t, dir, 400, 360)
	_, h := newDaemon(t,
		"-ingest-dir", filepath.Join(dir, "log"), "-data", seedPath, "-tax", taxPath,
		"-minsup", "0.15", "-minri", "0.3")
	ts := httptest.NewServer(h)
	defer ts.Close()
	get := func(path string) time.Duration {
		t.Helper()
		start := time.Now()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return time.Since(start)
	}
	get("/healthz") // open the keep-alive connection outside the timed probes
	if code := postJSON(t, h, "/ingest", ingestBody(t, baskets[360:]), nil); code != http.StatusAccepted {
		t.Fatalf("/ingest: %d", code)
	}

	disarm := fault.Enable(incr.PointMerge, fault.Sleep(300*time.Millisecond))
	reloaded := make(chan int, 1)
	go func() { reloaded <- postJSON(t, h, "/reload?wait=1", "", nil) }()
	for fault.Hits(incr.PointMerge) == 0 {
		time.Sleep(time.Millisecond)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if took := get(path); took > 20*time.Millisecond {
			t.Errorf("GET %s took %v while a refresh was running", path, took)
		}
	}
	code := <-reloaded
	disarm()
	if code != http.StatusOK {
		t.Fatalf("/reload: %d", code)
	}

	var m struct {
		Ingest struct {
			Seconds float64                 `json:"lastRefreshSeconds"`
			Last    *serve.RefreshBreakdown `json:"lastRefresh"`
		} `json:"ingest"`
	}
	getJSON(t, h, "/metrics", &m)
	lr := m.Ingest.Last
	if lr == nil || lr.IndexBytes == 0 || lr.LargeItems == 0 {
		t.Fatalf("ingest.lastRefresh = %+v", lr)
	}
	if lr.IndexBytes != lr.RowBytes+lr.PairBytes+lr.GapBytes || lr.PairBytes == 0 || lr.CountBytes == 0 || lr.TailSets+lr.FullSets == 0 || lr.RowWords == 0 {
		t.Fatalf("ingest.lastRefresh does not say what it counted: %+v", lr)
	}
	parts := lr.SealSeconds + lr.IndexAppendSeconds + lr.Stage1Seconds + lr.CandGenSeconds + lr.CountSeconds + lr.RuleGenSeconds
	if m.Ingest.Seconds < 0.3 || math.Abs(parts-m.Ingest.Seconds) > 0.05*m.Ingest.Seconds {
		t.Fatalf("lastRefresh parts sum to %.4fs, lastRefreshSeconds is %.4fs", parts, m.Ingest.Seconds)
	}
}

func TestStreamingFlagValidation(t *testing.T) {
	var sink strings.Builder
	bad := [][]string{
		{"-tax", "t", "-ingest-dir", "d", "-report", "r.json"}, // report + streaming
		{"-tax", "t", "-ingest-dir", "d", "-watch"},            // watch polls our own writes
		{"-tax", "t", "-ingest-dir", "d", "-remine-every", "-1s"},
		{"-tax", "t", "-ingest-dir", "d", "-remine-txns", "-2"},
		{"-tax", "t", "-data", "d.txt", "-remine-txns", "5"},   // trigger without streaming
		{"-tax", "t", "-data", "d.txt", "-remine-every", "1s"}, // trigger without streaming
	}
	for _, args := range bad {
		_, err := parseFlags(args, &sink)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Fatalf("%v: error %v exits %d, want 2 (usage)", args, err, code)
		}
	}
}

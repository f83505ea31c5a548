package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"negmine/internal/datagen"
	"negmine/internal/incr"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/seglog"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// streamFixture is stream-mixed's input: the files the daemon boots from and
// the baskets the writer will ingest. The daemon is seeded with the model's
// first transactions whatever the seed; --seed perturbs the rounds cut from
// the following transactions and draws the reader's op stream.
type streamFixture struct {
	tax               *taxonomy.Taxonomy // parsed back from taxPath, as the daemon does
	seedDB            *txdb.MemDB
	opt               negative.Options
	seedPath, taxPath string
	pool              [][]string // baskets by item name, roundTxns per round
	ops               []readOp
}

func buildStreamFixture(e *env) (*streamFixture, error) {
	sz := e.size
	gtax, gdb, err := generate(datagen.Short(), sz.streamTxns+sz.streamPool)
	if err != nil {
		return nil, err
	}
	fx := &streamFixture{
		opt:      mineOptions(sz.streamMinSup, sz.streamMinRI, sz.streamMaxK),
		seedPath: filepath.Join(e.workDir, "seed.txt"),
		taxPath:  filepath.Join(e.workDir, "tax.txt"),
	}
	all := gdb.Transactions()
	seedGen := &txdb.MemDB{}
	for _, tx := range all[:sz.streamTxns] {
		seedGen.Append(tx)
	}
	if err := writeFileWith(fx.taxPath, gtax.Write); err != nil {
		return nil, err
	}
	if err := writeFileWith(fx.seedPath, func(w io.Writer) error {
		return txdb.WriteBaskets(w, seedGen, gtax.Dictionary())
	}); err != nil {
		return nil, err
	}
	// From here on use what the daemon will see: the taxonomy parsed from
	// its file (item ids follow file order) and the baskets read by name.
	tf, err := os.Open(fx.taxPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	if fx.tax, err = taxonomy.Parse(tf); err != nil {
		return nil, err
	}
	sf, err := os.Open(fx.seedPath)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	if fx.seedDB, err = txdb.ReadBaskets(sf, fx.tax.Dictionary()); err != nil {
		return nil, err
	}
	// Round r is the next roundTxns + roundTxns/100 transactions of the
	// model's stream, minus the roundTxns/100 the seed drops, in an order
	// the seed shuffles. As for the batch workloads (see sampled), the seed
	// perturbs the input; redrawing it moved freshness by ±12 %.
	rng := rand.New(rand.NewSource(e.seed))
	stride := sz.roundTxns + sz.roundTxns/100
	for lo := sz.streamTxns; lo+stride <= len(all); lo += stride {
		for _, j := range rng.Perm(stride)[:sz.roundTxns] {
			tx := all[lo+j]
			names := make([]string, len(tx.Items))
			for k, it := range tx.Items {
				names[k] = gtax.Name(it)
			}
			fx.pool = append(fx.pool, names)
		}
	}
	e.stamp.Datasets["stream-mixed seed"] = fingerprintDB(fx.seedDB)
	e.stamp.Datasets["stream-mixed pool"] = fingerprintBytes([]byte(fmt.Sprint(fx.pool)))

	// The reader's vocabulary is the rule set the daemon boots with.
	res, err := negative.Mine(fx.seedDB, fx.tax, fx.opt)
	if err != nil {
		return nil, err
	}
	snap := serve.BuildSnapshot(rulestore.FromReport(report.BuildNegative(res, fx.opt.MinSupport, fx.opt.MinRI, fx.tax.Name)), fx.tax, serve.Meta{})
	vocab, misses := vocabulary(snap.Rules(), fx.tax, func(name string) bool {
		return len(snap.QueryEntries(name, 0, 1)) > 0
	}, 256)
	if fx.ops, err = genOps(e.seed, sz.opStream, vocab, misses); err != nil {
		return nil, err
	}
	e.stamp.Sizes["boot_rules"] = snap.Len()
	return fx, nil
}

// round returns the baskets of ingest round r (the pool wraps around).
func (fx *streamFixture) round(r, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = fx.pool[(r*n+i)%len(fx.pool)]
	}
	return out
}

// startStreamFleet boots a 1-shard negrouter and the streaming negmined
// joined to it, and waits until the router knows the ingest primary.
func startStreamFleet(e *env, negmined, negrouter string, fx *streamFixture, logDir string) (fleet, error) {
	sz := e.size
	router, err := startProc(e, "negrouter", negrouter, "-addr", "127.0.0.1:0", "-shards", "1", "-probe-every", "200ms")
	if err != nil {
		return nil, err
	}
	daemon, err := startProc(e, "negmined", negmined,
		"-data", fx.seedPath, "-tax", fx.taxPath, "-ingest-dir", logDir, "-addr", "127.0.0.1:0",
		"-minsup", fmt.Sprint(sz.streamMinSup), "-minri", fmt.Sprint(sz.streamMinRI),
		"-maxk", fmt.Sprint(sz.streamMaxK), "-remine-txns", fmt.Sprint(sz.roundTxns),
		"-parallel", fmt.Sprint(e.stamp.NumCPU),
		"-cluster-join", router.url(""), "-heartbeat", "100ms")
	if err != nil {
		router.stop()
		return nil, err
	}
	fl := fleet{router, daemon}
	client := oneConn()
	defer client.CloseIdleConnections()
	err = waitFor(e.ctx, 30*time.Second, "router to learn the ingest primary", func() bool {
		var h struct {
			Status  string `json:"status"`
			Primary string `json:"ingestPrimary"`
		}
		return getJSON(e.ctx, client, router.url("/healthz"), &h) == nil && h.Status == "ok" && h.Primary != ""
	})
	if err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// roundStat is one closed-loop ingest round.
type roundStat struct {
	first, last int64
	ackMs       float64 // POST /ingest → 2xx
	freshS      float64 // ack → acked lastTid visible in the served snapshot
	refreshS    float64 // daemon's ingest.lastRefreshSeconds when it became visible
	visible     bool
}

// writer runs closed-loop ingest rounds through the router: ingest one
// round's baskets, then poll the daemon until the served snapshot's
// watermark covers the ack, then the next round.
type writer struct {
	e              *env
	fx             *streamFixture
	client         *http.Client
	router, daemon string
	next           int // next round index
	rounds         []roundStat
	ingested       [][]string // every acked basket, in TID order
	failed         int
}

func (w *writer) close() { w.client.CloseIdleConnections() }

func (w *writer) oneRound() error {
	e, n := w.e, w.e.size.roundTxns
	baskets := w.fx.round(w.next, n)
	w.next++
	body, err := json.Marshal(map[string]any{"baskets": baskets})
	if err != nil {
		return err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(e.ctx, http.MethodPost, w.router+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		w.failed++
		return nil
	}
	var ack struct {
		Accepted int   `json:"accepted"`
		First    int64 `json:"firstTid"`
		Last     int64 `json:"lastTid"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	acked := time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted || ack.Accepted != n {
		w.failed++
		return nil
	}
	rs := roundStat{first: ack.First, last: ack.Last, ackMs: float64(acked.Sub(start)) / float64(time.Millisecond)}
	w.ingested = append(w.ingested, baskets...)
	var doc struct {
		Ingest struct {
			Visible     int64   `json:"visible_watermark"`
			LastRefresh float64 `json:"lastRefreshSeconds"`
		} `json:"ingest"`
	}
	for time.Since(acked) < 10*time.Second && e.ctx.Err() == nil {
		if err := getJSON(e.ctx, w.client, w.daemon+"/metrics", &doc); err == nil && doc.Ingest.Visible >= ack.Last {
			rs.visible, rs.freshS, rs.refreshS = true, time.Since(acked).Seconds(), doc.Ingest.LastRefresh
			break
		}
		time.Sleep(e.size.pollEvery)
	}
	if !rs.visible {
		w.failed++
	}
	w.rounds = append(w.rounds, rs)
	return e.ctx.Err()
}

// openLoop sends ops to base at rps on one connection until stop closes.
// Every op has a due time on a fixed schedule and its latency is measured
// from then, so a stall is charged to every request it delays; lag records
// how late the generator itself ran.
func openLoop(e *env, base string, ops []readOp, rps int, stop <-chan struct{}) *readStats {
	s := newReadStats()
	client := oneConn()
	defer client.CloseIdleConnections()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / time.Duration(rps))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return s
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return s
		default:
		}
		s.lag = append(s.lag, float64(time.Since(due))/float64(time.Millisecond))
		o := ops[i%len(ops)]
		body, err := doRead(e.ctx, client, base, o)
		s.record(o, due, body, err)
	}
}

func runStreamMixed(e *env) (*outcome, error) {
	negmined, negrouter, err := buildDaemons(e)
	if err != nil {
		return nil, err
	}
	m := newMetrics()
	fixStart := time.Now()
	fx, err := buildStreamFixture(e)
	if err != nil {
		return nil, err
	}
	fixture := time.Since(fixStart).Seconds()

	// Set-up: boot router and daemon (seed import + first mine) to healthy,
	// then one warm-up round and a few reads; several times, keeping the last.
	var fl fleet
	var w *writer
	var boots []float64
	for r := 0; r < e.reps(); r++ {
		fl.stop()
		start := time.Now()
		if fl, err = startStreamFleet(e, negmined, negrouter, fx, filepath.Join(e.workDir, fmt.Sprintf("log-%d", r))); err != nil {
			return nil, err
		}
		if w != nil {
			w.close()
		}
		w = &writer{e: e, fx: fx, client: oneConn(), router: fl[0].url(""), daemon: fl[1].url("")}
		if err := w.oneRound(); err != nil {
			fl.stop()
			return nil, err
		}
		closedLoop(e.ctx, w.router, fx.ops, 1, e.size.serveWarmup)
		boots = append(boots, time.Since(start).Seconds())
	}
	defer fl.stop()
	defer w.close()
	if w.failed > 0 {
		return nil, fmt.Errorf("warm-up ingest round failed; see %s", fl[1].logPath)
	}
	warm := len(w.rounds)

	window := e.window(1)
	if e.trace {
		window = e.window(0.5)
	}
	stop := make(chan struct{})
	readc := make(chan *readStats, 1)
	go func() { readc <- openLoop(e, w.router, fx.ops, e.size.readRPS, stop) }()
	start := time.Now()
	for time.Since(start) < window {
		if err := w.oneRound(); err != nil {
			break
		}
	}
	wall := time.Since(start).Seconds()
	close(stop)
	reads := <-readc
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}

	timed := w.rounds[warm:]
	var fresh, acks, refresh, overhead []float64
	visible := 0
	for _, r := range timed {
		acks = append(acks, r.ackMs)
		if r.visible {
			visible++
			fresh = append(fresh, r.freshS)
			refresh = append(refresh, r.refreshS)
			overhead = append(overhead, r.freshS-r.refreshS)
		}
	}
	attempted := reads.attempted + w.next - warm
	failed := reads.failed + w.failed
	fmt.Fprintf(e.log, "stream-mixed: %d rounds of %d baskets (%d visible) and %d reads in %.2fs; %d failed\n",
		len(timed), e.size.roundTxns, visible, reads.attempted, wall, failed)
	if visible == 0 {
		return nil, fmt.Errorf("no ingest round became visible; see %s", fl[1].logPath)
	}

	txnsPerS := float64(visible*e.size.roundTxns) / wall
	if !e.trace {
		rss, err := fl.peakRSS()
		if err != nil {
			return nil, err
		}
		m.set("setup_s", fixture+median(boots))
		m.set("result_p50_ms", median(fresh)*1e3)
		m.set("throughput_per_s", txnsPerS)
		m.set("peak_rss_mb", rss)
	} else {
		routedMetrics(e, m, reads, time.Duration(wall*float64(time.Second)))
		lag, _ := tail(reads.lag, 0.99)
		m.set("loadgen.lag_p99_ms", lag)
		m.set("negmined.freshness_p50_s", median(fresh))
		p90, used := tail(fresh, 0.9)
		m.set("negmined.freshness_p90_s", p90)
		if used != 0.9 {
			fmt.Fprintf(e.log, "negmined.freshness_p90_s: only %d rounds, reporting p%.0f\n", len(fresh), used*100)
		}
		m.set("negmined.visible_txns_per_s", txnsPerS)
		m.set("negmined.refresh_p50_s", median(refresh))
		m.set("negmined.visibility_overhead_p50_s", median(overhead))
		m.set("negrouter.ingest_ack_p50_ms", median(acks))
		if err := scrapeStreamFleet(e, m, fl); err != nil {
			return nil, err
		}
		if err := writeReplay(e, m, fx); err != nil {
			return nil, err
		}
	}

	streamChecks(e, fx, w, fl[1].url(""))
	return &outcome{m, attempted, failed}, nil
}

// scrapeStreamFleet reads the daemons' own counters after the run.
func scrapeStreamFleet(e *env, m *metrics, fl fleet) error {
	client := oneConn()
	defer client.CloseIdleConnections()
	var rm struct {
		Ingest struct {
			Forwarded int64 `json:"forwarded"`
			NoPrimary int64 `json:"noPrimary"`
			Rerouted  int64 `json:"rerouted"`
		} `json:"ingest"`
	}
	if err := getJSON(e.ctx, client, fl[0].url("/metrics"), &rm); err != nil {
		return err
	}
	m.set("cluster.ingest_forwarded", float64(rm.Ingest.Forwarded))
	m.set("cluster.ingest_rerouted", float64(rm.Ingest.Rerouted))
	m.set("cluster.ingest_no_primary", float64(rm.Ingest.NoPrimary))
	var dm struct {
		Ingest struct {
			Segments  int   `json:"segments"`
			Refreshes int64 `json:"refreshes"`
		} `json:"ingest"`
	}
	if err := getJSON(e.ctx, client, fl[1].url("/metrics"), &dm); err != nil {
		return err
	}
	m.set("negmined.refreshes", float64(dm.Ingest.Refreshes))
	m.set("negmined.segments", float64(dm.Ingest.Segments))
	return nil
}

// namesToSets resolves baskets against the taxonomy's dictionary.
func namesToSets(tax *taxonomy.Taxonomy, baskets [][]string) ([]item.Itemset, error) {
	dict := tax.Dictionary()
	sets := make([]item.Itemset, len(baskets))
	for i, b := range baskets {
		items := make([]item.Item, len(b))
		for j, name := range b {
			id, ok := dict.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown item %q", name)
			}
			items[j] = id
		}
		sets[i] = item.New(items...)
	}
	return sets, nil
}

// writeReplay replays ingest rounds in-process against seglog + incr, the
// two layers negmined's write path is made of, with a span around each call.
func writeReplay(e *env, m *metrics, fx *streamFixture) error {
	sz := e.size
	tr := newTracer(wlStreamMixed)
	log, err := seglog.Open(filepath.Join(e.workDir, "replay-log"), seglog.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	// Seed import, as negmined does it: sealed batches of 4096.
	seedTxs := fx.seedDB.Transactions()
	for lo := 0; lo < len(seedTxs); lo += 4096 {
		hi := min(lo+4096, len(seedTxs))
		sets := make([]item.Itemset, hi-lo)
		for i, tx := range seedTxs[lo:hi] {
			sets[i] = tx.Items
		}
		if _, _, err := log.Append(sets); err != nil {
			return err
		}
		if err := log.Seal(); err != nil {
			return err
		}
	}
	miner := incr.New(fx.tax, fx.opt)
	if _, err := miner.Refresh(log); err != nil {
		return err
	}
	var newSegs []float64
	oldScans := 0
	for r := 0; r < sz.replayRounds; r++ {
		sets, err := namesToSets(fx.tax, fx.round(r, sz.roundTxns))
		if err != nil {
			return err
		}
		tr.cycle = r
		tr.in("round", func() {
			tr.in("seglog.append", func() { _, _, err = log.Append(sets) })
			if err != nil {
				return
			}
			tr.in("seglog.seal", func() { err = log.Seal() })
			if err != nil {
				return
			}
			var res *negative.Result
			tr.in("incr.refresh", func() { res, err = miner.Refresh(log) })
			if err != nil {
				return
			}
			var rep *report.NegativeReport
			tr.in("report.build", func() {
				rep = report.BuildNegative(res, fx.opt.MinSupport, fx.opt.MinRI, fx.tax.Name)
			})
			var st *rulestore.Store
			tr.in("rulestore.from_report", func() { st = rulestore.FromReport(rep) })
			tr.in("serve.snapshot_build", func() { serve.BuildSnapshot(st, fx.tax, serve.Meta{}) })
		})
		if err != nil {
			return err
		}
		stats := miner.LastStats()
		newSegs = append(newSegs, float64(stats.NewSegments))
		oldScans += stats.OldSegmentScans
	}
	total := totals(tr.spans)
	refresh := byCycle(tr.spans, total, "incr.refresh")
	m.set("seglog.append_ms", median(byCycle(tr.spans, total, "seglog.append"))*1e3)
	m.set("seglog.seal_ms", median(byCycle(tr.spans, total, "seglog.seal"))*1e3)
	if ls := log.Stats(); ls.SealedTxns > 0 {
		m.set("seglog.bytes_per_txn", float64(ls.SealedBytes)/float64(ls.SealedTxns))
	}
	m.set("incr.refresh_p50_s", median(refresh))
	m.set("incr.refresh_first_s", refresh[0])
	m.set("incr.refresh_last_s", refresh[len(refresh)-1])
	m.set("incr.new_segments", median(newSegs))
	m.set("incr.old_segment_scans", float64(oldScans))
	m.set("report.build_s", median(byCycle(tr.spans, total, "report.build")))
	m.set("rulestore.from_report_s", median(byCycle(tr.spans, total, "rulestore.from_report")))
	m.set("serve.snapshot_build_s", median(byCycle(tr.spans, total, "serve.snapshot_build")))
	path, err := tr.write(e.outDir, e.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "stream-mixed: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// streamChecks verifies the write path's promises: acked TID ranges are
// contiguous and disjoint, every round became visible, and what the daemon
// finally serves is what a batch mine of seed + ingested transactions gives.
func streamChecks(e *env, fx *streamFixture, w *writer, daemon string) {
	n := int64(e.size.roundTxns)
	nextTID := int64(fx.seedDB.Count()) + 1
	contiguous, visible := true, true
	for _, r := range w.rounds {
		contiguous = contiguous && r.first == nextTID && r.last == r.first+n-1
		visible = visible && r.visible
		nextTID = r.last + 1
	}
	e.checks.check("tids-contiguous", contiguous && w.failed == 0, "acked TID ranges are not contiguous and disjoint: %+v", w.rounds)
	e.checks.check("rounds-visible", visible, "a round never became visible")

	// Oracle: one batch mine over everything the daemon was given, with the
	// daemon's options.
	db := &txdb.MemDB{}
	for _, tx := range fx.seedDB.Transactions() {
		db.Append(tx)
	}
	sets, err := namesToSets(fx.tax, w.ingested)
	if err != nil {
		e.checks.check("served-equals-batch-oracle", false, "%v", err)
		return
	}
	for i, s := range sets {
		db.Append(txdb.Transaction{TID: int64(fx.seedDB.Count() + i + 1), Items: s})
	}
	res, err := negative.Mine(db, fx.tax, fx.opt)
	if err != nil {
		e.checks.check("served-equals-batch-oracle", false, "%v", err)
		return
	}
	rep := report.BuildNegative(res, fx.opt.MinSupport, fx.opt.MinRI, fx.tax.Name)
	want := map[string]bool{}
	names := map[string]bool{}
	for _, r := range rep.Rules {
		want[ruleKey(r.Antecedent, r.Consequent, r.RuleInterest)] = true
		for _, name := range append(append([]string(nil), r.Antecedent...), r.Consequent...) {
			names[name] = true
		}
	}
	// The daemon has no "all rules" endpoint: ask for every item the oracle's
	// rules mention, and use /healthz's rule count to rule out extras.
	client := oneConn()
	defer client.CloseIdleConnections()
	got := map[string]bool{}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		var doc struct {
			Rules []serve.RuleJSON `json:"rules"`
		}
		if err := getJSON(e.ctx, client, daemon+"/rules?item="+url.QueryEscape(name), &doc); err != nil {
			e.checks.check("served-equals-batch-oracle", false, "%v", err)
			return
		}
		for _, r := range doc.Rules {
			got[ruleKey(r.Antecedent, r.Consequent, r.RuleInterest)] = true
		}
	}
	var health struct {
		Snapshot struct {
			Rules int `json:"rules"`
		} `json:"snapshot"`
	}
	err = getJSON(e.ctx, client, daemon+"/healthz", &health)
	missing := 0
	for k := range want {
		if !got[k] {
			missing++
		}
	}
	e.checks.check("served-equals-batch-oracle",
		err == nil && missing == 0 && len(got) == len(want) && health.Snapshot.Rules == len(want),
		"oracle has %d rules, daemon serves %d (healthz says %d), %d oracle rules missing (err %v)",
		len(want), len(got), health.Snapshot.Rules, missing, err)
}

func ruleKey(ante, cons []string, ri float64) string {
	return strings.Join(ante, ",") + "=>" + strings.Join(cons, ",") + fmt.Sprintf("@%.12g", ri)
}

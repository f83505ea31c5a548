package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"negmine/internal/cluster"
	"negmine/internal/datagen"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

const serveShards = 2

// serveFixture is the state serve-read serves: a rule set mined once from
// the model's first transactions, on disk as the report + taxonomy files
// the daemons load and in memory for the in-process depths and the oracle.
// It does not depend on --seed; the seed draws the op stream.
type serveFixture struct {
	tax              *taxonomy.Taxonomy
	st               *rulestore.Store
	meta             serve.Meta
	repPath, taxPath string
	full             *serve.Snapshot // unsharded
	vocab, misses    []string
	ops              []readOp
}

func buildServeFixture(e *env) (*serveFixture, error) {
	sz := e.size
	tax, db, err := generate(datagen.Short(), sz.serveTxns)
	if err != nil {
		return nil, err
	}
	e.stamp.Datasets["serve-read"] = fingerprintDB(db)
	opt := mineOptions(sz.serveMinSup, sz.serveMinRI, 0)
	res, err := negative.Mine(db, tax, opt)
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{
		tax:     tax,
		repPath: filepath.Join(e.workDir, "rules.json"),
		taxPath: filepath.Join(e.workDir, "tax.txt"),
	}
	if err := writeFileWith(fx.repPath, func(w io.Writer) error {
		return report.WriteNegativeJSON(w, res, opt.MinSupport, opt.MinRI, tax.Name)
	}); err != nil {
		return nil, err
	}
	if err := writeFileWith(fx.taxPath, tax.Write); err != nil {
		return nil, err
	}
	// Read the report back, as the daemons will: the oracle must be built
	// from the bytes on disk, not from the in-memory result.
	f, err := os.Open(fx.repPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := report.ReadNegativeJSON(f)
	if err != nil {
		return nil, err
	}
	fx.st = rulestore.FromReport(rep)
	if fx.st.Len() == 0 {
		return nil, fmt.Errorf("serve-read fixture mined no rules")
	}
	fx.meta = serve.Meta{Source: "report " + fx.repPath, MinSupport: rep.MinSupport, MinRI: rep.MinRI}
	fx.full = serve.BuildSnapshot(fx.st, tax, fx.meta)
	fx.vocab, fx.misses = vocabulary(fx.full.Rules(), tax, func(name string) bool {
		return len(fx.full.QueryEntries(name, 0, 1)) > 0
	}, 256)
	if fx.ops, err = genOps(e.seed, sz.opStream, fx.vocab, fx.misses); err != nil {
		return nil, err
	}
	e.stamp.Sizes["rules"] = fx.st.Len()
	e.stamp.Sizes["vocabulary"] = len(fx.vocab)
	e.stamp.Sizes["miss_items"] = len(fx.misses)
	e.stamp.Datasets["serve-read ops"] = fingerprintBytes(encodeOps(fx.ops))
	return fx, nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startServeFleet boots one negrouter and serveShards negmined shard
// daemons on loopback ports of the kernel's choosing and waits until the
// router reports every shard routable.
func startServeFleet(e *env, negmined, negrouter string, fx *serveFixture) (fleet, error) {
	router, err := startProc(e, "negrouter", negrouter,
		"-addr", "127.0.0.1:0", "-shards", fmt.Sprint(serveShards), "-probe-every", "200ms")
	if err != nil {
		return nil, err
	}
	fl := fleet{router}
	for k := 0; k < serveShards; k++ {
		p, err := startProc(e, fmt.Sprintf("negmined-%d", k), negmined,
			"-report", fx.repPath, "-tax", fx.taxPath, "-addr", "127.0.0.1:0",
			"-shard", fmt.Sprintf("%d/%d", k, serveShards),
			"-cluster-join", router.url(""), "-heartbeat", "100ms")
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl = append(fl, p)
	}
	client := oneConn()
	defer client.CloseIdleConnections()
	err = waitFor(e.ctx, 30*time.Second, "every shard routable", func() bool {
		var h struct {
			Status   string `json:"status"`
			Routable int    `json:"routableShards"`
		}
		return getJSON(e.ctx, client, router.url("/healthz"), &h) == nil && h.Status == "ok" && h.Routable == serveShards
	})
	if err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// readStats is what one load-generating client saw.
type readStats struct {
	lat       map[string][]float64 // kind → latency of complete 2xx replies, ms
	bytes     []float64            // response sizes
	attempted int
	failed    int
	lag       []float64 // open loop only: how late each send was, ms
}

func newReadStats() *readStats { return &readStats{lat: map[string][]float64{}} }

func (s *readStats) merge(o *readStats) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.bytes = append(s.bytes, o.bytes...)
	s.lag = append(s.lag, o.lag...)
	s.attempted += o.attempted
	s.failed += o.failed
}

func (s *readStats) all() []float64 {
	return append(append([]float64(nil), s.lat["rules"]...), s.lat["score"]...)
}

// doRead sends one op to base and reads the whole reply. Anything but a
// complete 200 is a failure: transport errors, 4xx, 5xx, 503 sheds and 206
// partials alike.
func doRead(ctx context.Context, client *http.Client, base string, o readOp) (body []byte, err error) {
	var req *http.Request
	if o.Score {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/score", bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+o.path, nil)
	}
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return body, nil
}

// record times one op (from start, which an open loop sets to the op's due
// time) into the stats.
func (s *readStats) record(o readOp, start time.Time, body []byte, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.lat[o.kind()] = append(s.lat[o.kind()], float64(time.Since(start))/float64(time.Millisecond))
	s.bytes = append(s.bytes, float64(len(body)))
}

// closedLoop drives base with clients concurrent callers for window; each
// waits for its reply before sending its next op, and owns one connection.
// Client c plays ops c, c+clients, c+2·clients, … and wraps around.
func closedLoop(ctx context.Context, base string, ops []readOp, clients int, window time.Duration) (*readStats, time.Duration) {
	per := make([]*readStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		per[c] = newReadStats()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := oneConn()
			defer client.CloseIdleConnections()
			for i := c; time.Now().Before(deadline) && ctx.Err() == nil; i += clients {
				o := ops[i%len(ops)]
				t := time.Now()
				body, err := doRead(ctx, client, base, o)
				per[c].record(o, t, body, err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := newReadStats()
	for _, s := range per {
		total.merge(s)
	}
	return total, elapsed
}

func runServeRead(e *env) (*outcome, error) {
	negmined, negrouter, err := buildDaemons(e)
	if err != nil {
		return nil, err
	}
	m := newMetrics()
	fixStart := time.Now()
	fx, err := buildServeFixture(e)
	if err != nil {
		return nil, err
	}
	fixture := time.Since(fixStart).Seconds()

	// Set-up: boot the fleet to healthy and warm it (connections, scratch
	// pools, hot-item caches), several times over; keep the last fleet.
	var fl fleet
	var boots []float64
	for r := 0; r < e.reps(); r++ {
		fl.stop()
		start := time.Now()
		if fl, err = startServeFleet(e, negmined, negrouter, fx); err != nil {
			return nil, err
		}
		closedLoop(e.ctx, fl[0].url(""), fx.ops, e.size.serveClients, e.size.serveWarmup)
		boots = append(boots, time.Since(start).Seconds())
	}
	defer fl.stop()
	router := fl[0].url("")

	window := e.window(1)
	if e.trace {
		window = e.window(1.0 / 3)
	}
	stats, elapsed := closedLoop(e.ctx, router, fx.ops, e.size.serveClients, window)
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	ok := stats.attempted - stats.failed
	fmt.Fprintf(e.log, "serve-read: %d reads in %.2fs through the router (%d rules, %d failed)\n",
		stats.attempted, elapsed.Seconds(), fx.st.Len(), stats.failed)

	if !e.trace {
		rss, err := fl.peakRSS()
		if err != nil {
			return nil, err
		}
		m.set("setup_s", fixture+median(boots))
		m.set("result_p50_ms", median(stats.all()))
		m.set("throughput_per_s", float64(ok)/elapsed.Seconds())
		m.set("peak_rss_mb", rss)
	} else {
		routedMetrics(e, m, stats, elapsed)
		if err := scrapeServeFleet(e, m, fl); err != nil {
			return nil, err
		}
		if err := readDepths(e, m, fx); err != nil {
			return nil, err
		}
	}

	serveChecks(e, fx, router)
	return &outcome{m, stats.attempted, stats.failed}, nil
}

// routedMetrics reports the endpoint-level figures of a run through the
// real router.
func routedMetrics(e *env, m *metrics, s *readStats, elapsed time.Duration) {
	m.set("negrouter.read_rps", float64(s.attempted-s.failed)/elapsed.Seconds())
	for _, kind := range []string{"rules", "score"} {
		m.set("negrouter."+kind+"_p50_ms", median(s.lat[kind]))
		p99, used := tail(s.lat[kind], 0.99)
		m.set("negrouter."+kind+"_p99_ms", p99)
		if used != 0.99 {
			fmt.Fprintf(e.log, "negrouter.%s_p99_ms: only %d samples, reporting p%.0f\n", kind, len(s.lat[kind]), used*100)
		}
	}
	m.set("negrouter.failed_share", float64(s.failed)/float64(s.attempted))
	m.set("serve.response_bytes_p50", median(s.bytes))
}

// scrapeServeFleet reads the daemons' own /metrics after the routed run.
func scrapeServeFleet(e *env, m *metrics, fl fleet) error {
	client := oneConn()
	defer client.CloseIdleConnections()
	var rm struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"endpoints"`
		Fanout struct {
			Attempts int64 `json:"attempts"`
			Retries  int64 `json:"retries"`
			Hedges   int64 `json:"hedges"`
			Partials int64 `json:"partialResponses"`
		} `json:"fanout"`
	}
	if err := getJSON(e.ctx, client, fl[0].url("/metrics"), &rm); err != nil {
		return err
	}
	// Warm-up traffic is in both counters, so the ratio is per routed read.
	if reads := rm.Endpoints["rules"].Requests + rm.Endpoints["score"].Requests; reads > 0 {
		m.set("cluster.fanout_attempts_per_op", float64(rm.Fanout.Attempts)/float64(reads))
	}
	m.set("cluster.retries", float64(rm.Fanout.Retries))
	m.set("cluster.hedges", float64(rm.Fanout.Hedges))
	m.set("cluster.partials", float64(rm.Fanout.Partials))
	var sheds, panics, hits, lookups float64
	for _, p := range fl[1:] {
		var sm struct {
			Panics   int64 `json:"panics"`
			Snapshot struct {
				Cache *serve.CacheStats `json:"cache"`
			} `json:"snapshot"`
			Govern *struct {
				ShedTotal int64 `json:"shedTotal"`
			} `json:"govern"`
		}
		if err := getJSON(e.ctx, client, p.url("/metrics"), &sm); err != nil {
			return err
		}
		panics += float64(sm.Panics)
		if sm.Govern != nil {
			sheds += float64(sm.Govern.ShedTotal)
		}
		if c := sm.Snapshot.Cache; c != nil {
			hits += float64(c.Hits)
			lookups += float64(c.Hits + c.Misses)
		}
	}
	m.set("serve.sheds", sheds)
	m.set("serve.panics", panics)
	if lookups > 0 {
		m.set("serve.cache_hit_rate", hits/lookups)
	}
	return nil
}

// newServer wraps a fixed snapshot in the serving layer, as negmined does.
func newServer(ctx context.Context, snap *serve.Snapshot) (*serve.Server, error) {
	return serve.NewServer(ctx, func(context.Context) (*serve.Snapshot, error) { return snap, nil },
		serve.WithLogger(func(string, ...any) {}))
}

// inProcessCluster is depth 4: a cluster.Router over serveShards loopback
// shard servers, itself behind a loopback listener — the deployed topology
// without process boundaries.
type inProcessCluster struct {
	shards []*httptest.Server
	front  *httptest.Server
}

func (c *inProcessCluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	for _, s := range c.shards {
		s.Close()
	}
}

func newInProcessCluster(ctx context.Context, fx *serveFixture) (*inProcessCluster, error) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: serveShards})
	if err != nil {
		return nil, err
	}
	c := &inProcessCluster{}
	for k := 0; k < serveShards; k++ {
		k := k
		meta := fx.meta
		meta.Keep = func(ante, _ []string) bool { return cluster.ShardOfAntecedent(ante, serveShards) == k }
		snap := serve.BuildSnapshot(fx.st, fx.tax, meta)
		srv, err := newServer(ctx, snap)
		if err != nil {
			c.close()
			return nil, err
		}
		backend := httptest.NewServer(srv.Handler())
		c.shards = append(c.shards, backend)
		err = rt.Pool().Heartbeat(cluster.Heartbeat{
			Node: fmt.Sprintf("depth4-%d", k), Addr: strings.TrimPrefix(backend.URL, "http://"),
			Shard: k, Shards: serveShards, Generation: 1, Rules: snap.Len(),
		})
		if err != nil {
			c.close()
			return nil, err
		}
	}
	c.front = httptest.NewServer(rt.Handler())
	return c, nil
}

// readDepths replays the op stream in-process at four depths. Each depth's
// per-op median minus the depth below is the self time of the layer the
// depth adds, and the four add up to the in-process routed request.
func readDepths(e *env, m *metrics, fx *serveFixture) error {
	tr := newTracer(wlServeRead)
	srv, err := newServer(e.ctx, fx.full)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	single := httptest.NewServer(handler)
	defer single.Close()
	cl, err := newInProcessCluster(e.ctx, fx)
	if err != nil {
		return err
	}
	defer cl.close()
	client := oneConn()
	defer client.CloseIdleConnections()

	var ids []serve.RuleID
	var failed int
	depths := []struct {
		name string
		do   func(o readOp)
	}{
		{"serve.query", func(o readOp) {
			if o.Score {
				ids = fx.full.Score(ids[:0], o.Basket, 0, readLimit)
			} else if _, err := fx.full.QueryShared(e.ctx, o.Item, 0, readLimit); err != nil {
				failed++
			}
		}},
		{"serve.handler", func(o readOp) {
			var req *http.Request
			if o.Score {
				req = httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(o.body))
			} else {
				req = httptest.NewRequest(http.MethodGet, o.path, nil)
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				failed++
			}
		}},
		{"serve.http", func(o readOp) {
			if _, err := doRead(e.ctx, client, single.URL, o); err != nil {
				failed++
			}
		}},
		{"cluster.router", func(o readOp) {
			if _, err := doRead(e.ctx, client, cl.front.URL, o); err != nil {
				failed++
			}
		}},
	}
	window := e.window(1.0 / 8)
	below := map[string]float64{}
	monotone := true
	for _, d := range depths {
		for _, o := range fx.ops[:min(64, len(fx.ops))] { // warm this depth
			d.do(o)
		}
		lat := map[string][]float64{}
		n := 0
		for start := time.Now(); time.Since(start) < window || n < 32; n++ {
			o := fx.ops[n%len(fx.ops)]
			t := time.Now()
			d.do(o)
			el := time.Since(t)
			lat[o.kind()] = append(lat[o.kind()], float64(el)/float64(time.Microsecond))
			if n < e.size.depthOps {
				tr.add(d.name+"_"+o.kind(), t, el, n)
			}
		}
		for _, kind := range []string{"rules", "score"} {
			med := median(lat[kind])
			m.set(d.name+"_"+kind+"_us", med-below[kind])
			monotone = monotone && med >= below[kind]
			below[kind] = med
		}
		fmt.Fprintf(e.log, "serve-read depth %-14s %6d ops  rules p50 %9.2fus  score p50 %9.2fus\n",
			d.name, n, below["rules"], below["score"])
	}
	e.checks.check("depths-monotone", monotone && failed == 0,
		"query ≤ handler ≤ http ≤ router does not hold, or %d in-process ops failed", failed)

	if err := mergeCost(e, m, tr, fx, cl, client); err != nil {
		return err
	}
	path, err := tr.write(e.outDir, e.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "serve-read: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// mergeCost captures each shard's answer to a sample of ops and times the
// router's merge step alone on them.
func mergeCost(e *env, m *metrics, tr *tracer, fx *serveFixture, cl *inProcessCluster, client *http.Client) error {
	var rulesUs, scoreUs, widths []float64
	for i, o := range fx.ops[:min(e.size.fixedQueries, len(fx.ops))] {
		var ruleLists [][]cluster.WireRule
		var matchLists [][]cluster.WireMatch
		for _, sh := range cl.shards {
			body, err := doRead(e.ctx, client, sh.URL, o)
			if err != nil {
				return err
			}
			if o.Score {
				var doc cluster.ScoreDoc
				if err := json.Unmarshal(body, &doc); err != nil {
					return err
				}
				matchLists = append(matchLists, doc.Matches)
			} else {
				var doc cluster.RulesDoc
				if err := json.Unmarshal(body, &doc); err != nil {
					return err
				}
				ruleLists = append(ruleLists, doc.Rules)
			}
		}
		t := time.Now()
		if o.Score {
			cluster.MergeMatches(matchLists, readLimit)
		} else {
			cluster.MergeRules(ruleLists, readLimit)
		}
		el := time.Since(t)
		tr.add("cluster.merge_"+o.kind(), t, el, i)
		us := float64(el) / float64(time.Microsecond)
		if o.Score {
			scoreUs = append(scoreUs, us)
			widths = append(widths, float64(len(cluster.ShardsForBasket(o.Basket, serveShards))))
		} else {
			rulesUs = append(rulesUs, us)
		}
	}
	m.set("cluster.merge_rules_us", median(rulesUs))
	m.set("cluster.merge_score_us", median(scoreUs))
	m.set("cluster.shards_per_score", mean(widths))
	return nil
}

// serveChecks sends fixed queries through the real router and compares each
// reply, byte for byte, with an unsharded in-process server on the same
// report.
func serveChecks(e *env, fx *serveFixture, router string) {
	srv, err := newServer(e.ctx, fx.full)
	if err != nil {
		e.checks.check("router-vs-unsharded", false, "%v", err)
		return
	}
	ref := httptest.NewServer(srv.Handler())
	defer ref.Close()
	ops, err := genOps(1, e.size.fixedQueries, fx.vocab, fx.misses)
	if err != nil {
		e.checks.check("router-vs-unsharded", false, "%v", err)
		return
	}
	client := oneConn()
	defer client.CloseIdleConnections()
	// The router picks /score shards from the basket's own items, not their
	// taxonomy ancestors, so a basket whose items all hash to one shard
	// misses rules owned by the other shard whose antecedent is an ancestor
	// of a basket item. That is a defect of internal/cluster this benchmark
	// may not fix; replies to such narrow fan-outs are compared and counted
	// but only full fan-outs (every /rules, most /score) must be identical.
	diffs, narrowDiffs, nonEmpty := 0, 0, 0
	var first string
	for _, o := range ops {
		got, err1 := doRead(e.ctx, client, router, o)
		want, err2 := doRead(e.ctx, client, ref.URL, o)
		narrow := o.Score && len(cluster.ShardsForBasket(o.Basket, serveShards)) < serveShards
		switch {
		case err1 == nil && err2 == nil && bytes.Equal(got, want):
		case narrow && err1 == nil && err2 == nil:
			narrowDiffs++
		default:
			if diffs == 0 {
				first = fmt.Sprintf("%s %v (err %v / %v)", o.kind(), append(o.Basket, o.Item), err1, err2)
			}
			diffs++
		}
		if bytes.Contains(want, []byte(`"antecedent"`)) {
			nonEmpty++
		}
	}
	e.stamp.Sizes["narrow_score_divergent"] = narrowDiffs
	if narrowDiffs > 0 {
		fmt.Fprintf(e.log, "serve-read: %d of %d fixed queries are single-shard /score fan-outs whose merged reply lacks ancestor-triggered rules of the other shard (known router defect, see README.md)\n", narrowDiffs, len(ops))
	}
	e.checks.check("router-vs-unsharded", diffs == 0 && nonEmpty > 0,
		"%d of %d replies differ (first: %s); %d replies carried rules", diffs, len(ops), first, nonEmpty)
}

package loadsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// workerStats is one worker's private tally — merged after the pool drains,
// so the hot path takes no locks.
type workerStats struct {
	sent    [opKinds]int64
	ok      [opKinds]int64
	partial [opKinds]int64
	shed    [opKinds]int64
	err4xx  [opKinds]int64
	err5xx  [opKinds]int64
	netErr  [opKinds]int64
	lat     [opKinds][]time.Duration
}

// Run executes cfg against cfg.Target: it scripts the op stream, paces it
// through a bounded queue into a worker pool, plants tracer itemsets in
// parallel, and polls /rules until every tracer's negative rule is visible
// (or PollTimeout expires). ctx cancels the run early; whatever was measured
// by then is still returned.
func Run(ctx context.Context, cfg Config, dict Dict) (*Result, error) {
	cfg = cfg.withDefaults()
	ops, err := Script(cfg, dict)
	if err != nil {
		return nil, err
	}
	tracers, err := ChooseTracers(dict, cfg.Tracers)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 15 * time.Second}

	// Tracer plant sizing needs the target's current transaction count so
	// planted pairs land above the mining support threshold after the run's
	// own ingest traffic is added.
	seedTxns := cfg.SeedTxns
	if len(tracers) > 0 && seedTxns == 0 {
		if seedTxns, err = fetchTxnCount(ctx, client, cfg.Target); err != nil {
			return nil, fmt.Errorf("loadsim: reading seed txn count: %w", err)
		}
	}
	plantPerTracer, err := plantSize(cfg, seedTxns, ScriptTxns(ops), len(tracers))
	if err != nil {
		return nil, err
	}

	// Tracer controller runs alongside the load: plant, then poll.
	tc := &tracerControl{
		cfg:     cfg,
		client:  client,
		tracers: tracers,
		perTr:   plantPerTracer,
	}
	var tracerWG sync.WaitGroup
	if len(tracers) > 0 {
		tracerWG.Add(1)
		go func() {
			defer tracerWG.Done()
			tc.run(ctx)
		}()
	}

	// Producer/worker pipeline: the producer paces ops by their virtual
	// time; the bounded queue backpressures it when workers fall behind, so
	// achieved throughput honestly reflects what the target sustained.
	opCh := make(chan Op, cfg.QueueDepth)
	stats := make([]workerStats, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(ws *workerStats) {
			defer wg.Done()
			for op := range opCh {
				execOp(client, cfg.Target, op, start.Add(op.At), ws)
			}
		}(&stats[w])
	}
produce:
	for _, op := range ops {
		if d := time.Until(start.Add(op.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break produce
			}
		}
		select {
		case opCh <- op:
		case <-ctx.Done():
			break produce
		}
	}
	close(opCh)
	wg.Wait()
	elapsed := time.Since(start)
	tracerWG.Wait()

	return assemble(cfg, ops, stats, elapsed, tc, seedTxns), nil
}

// execOp issues one scripted request and classifies the outcome. Its
// latency runs from due, when the script says the request is sent, not from
// when a worker got to send it: a request queued behind a stalled target
// waited as long as a user would have (no coordinated omission).
func execOp(client *http.Client, target string, op Op, due time.Time, ws *workerStats) {
	var (
		resp *http.Response
		err  error
	)
	ws.sent[op.Kind]++
	switch op.Kind {
	case OpIngest:
		resp, err = client.Post(target+"/ingest", "application/json", bytes.NewReader(op.Body))
	case OpScore:
		resp, err = client.Post(target+"/score", "application/json", bytes.NewReader(op.Body))
	case OpRules:
		resp, err = client.Get(target + "/rules?item=" + url.QueryEscape(op.Item))
	}
	d := time.Since(due)
	if err != nil {
		ws.netErr[op.Kind]++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ws.lat[op.Kind] = append(ws.lat[op.Kind], d)
	switch {
	case resp.StatusCode == http.StatusPartialContent:
		ws.partial[op.Kind]++
	case resp.StatusCode < 300:
		ws.ok[op.Kind]++
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		// Admission control shedding under overload is the documented
		// contract, not a server failure — tallied separately from 5xx.
		ws.shed[op.Kind]++
	case resp.StatusCode >= 500:
		ws.err5xx[op.Kind]++
	case resp.StatusCode >= 400:
		ws.err4xx[op.Kind]++
	default:
		ws.ok[op.Kind]++
	}
}

// assemble merges per-worker stats and the tracer outcome into a Result.
func assemble(cfg Config, ops []Op, stats []workerStats, elapsed time.Duration, tc *tracerControl, seedTxns int) *Result {
	res := &Result{
		Target:          cfg.Target,
		Seed:            cfg.Seed,
		Ops:             len(ops),
		DurationSeconds: cfg.Duration.Seconds(),
		ElapsedSeconds:  elapsed.Seconds(),
	}
	var offered [opKinds]int64
	for _, op := range ops {
		offered[op.Kind]++
	}
	scripted := cfg.Duration.Seconds()
	if scripted > 0 {
		res.OfferedRPS = float64(len(ops)) / scripted
	}
	var totalSent int64
	for kind := 0; kind < opKinds; kind++ {
		ep := EndpointResult{Endpoint: OpName(kind), Offered: offered[kind]}
		var lat []time.Duration
		for i := range stats {
			ws := &stats[i]
			ep.Sent += ws.sent[kind]
			ep.OK += ws.ok[kind]
			ep.Partial += ws.partial[kind]
			ep.Shed += ws.shed[kind]
			ep.Err4xx += ws.err4xx[kind]
			ep.Err5xx += ws.err5xx[kind]
			ep.NetErr += ws.netErr[kind]
			lat = append(lat, ws.lat[kind]...)
		}
		if scripted > 0 {
			ep.OfferedRPS = float64(ep.Offered) / scripted
		}
		ep.MeanMs, ep.P50Ms, ep.P99Ms, ep.P999Ms = quantiles(lat)
		totalSent += ep.Sent
		res.Endpoints = append(res.Endpoints, ep)
	}
	if elapsed > 0 {
		res.AchievedRPS = float64(totalSent) / elapsed.Seconds()
	}
	if len(tc.tracers) > 0 {
		res.Freshness = tc.result()
	}
	return res
}

// plantSize solves for baskets-per-side per tracer: each side ({A,X} and
// {B}) must hold ≥ 2× the mining support threshold of the FINAL transaction
// count — which itself includes the plants — so the count is the fixed point
// of K = ceil(2·minsup·(seed + script + 2·K·tracers)).
func plantSize(cfg Config, seedTxns, scriptTxns, tracers int) (int, error) {
	if tracers == 0 {
		return 0, nil
	}
	margin := 2.0
	if margin*cfg.MinSupport*float64(2*tracers) >= 0.5 {
		return 0, fmt.Errorf("loadsim: %d tracers at minsup %v cannot all cross the threshold", tracers, cfg.MinSupport)
	}
	k := 1
	for i := 0; i < 64; i++ {
		final := seedTxns + scriptTxns + 2*k*tracers
		next := int(math.Ceil(margin * cfg.MinSupport * float64(final)))
		if next < 1 {
			next = 1
		}
		if next <= k {
			break
		}
		k = next
	}
	return k, nil
}

// tracerControl plants the tracer baskets and polls /rules until every
// engineered negative rule is served.
type tracerControl struct {
	cfg     Config
	client  *http.Client
	tracers []Tracer
	perTr   int // baskets per side per tracer

	mu          sync.Mutex
	plantErrs   int64
	plantTxns   int
	ackedAt     []time.Time // per tracer: last plant batch acknowledged
	visibleAt   []time.Time // per tracer: first poll serving the rule (zero = not yet)
	pollLatency []float64   // freshness samples, seconds
}

func (tc *tracerControl) run(ctx context.Context) {
	tc.ackedAt = make([]time.Time, len(tc.tracers))
	tc.visibleAt = make([]time.Time, len(tc.tracers))
	tc.plant(ctx)
	tc.poll(ctx)
}

// plant ingests, for each tracer, perTr baskets of {A,X} and perTr baskets
// of {B} — interleaved in IngestBatch-sized requests so the engineered
// supports arrive together. {A,B} is never ingested: actual support of the
// sibling-replacement candidate stays 0 while its expected support ≈ sup(B).
func (tc *tracerControl) plant(ctx context.Context) {
	for i, tr := range tc.tracers {
		var baskets [][]string
		for k := 0; k < tc.perTr; k++ {
			baskets = append(baskets, []string{tr.Antecedent, tr.Partner}, []string{tr.Consequent})
		}
		for off := 0; off < len(baskets); off += tc.cfg.IngestBatch {
			end := off + tc.cfg.IngestBatch
			if end > len(baskets) {
				end = len(baskets)
			}
			if ctx.Err() != nil {
				return
			}
			if tc.postBatch(ctx, baskets[off:end]) {
				tc.mu.Lock()
				tc.plantTxns += end - off
				tc.ackedAt[i] = time.Now()
				tc.mu.Unlock()
			}
		}
	}
}

// postBatch sends one /ingest request, retrying transient failures (sheds,
// 5xx, transport errors) with backoff. Returns whether the batch was acked.
func (tc *tracerControl) postBatch(ctx context.Context, baskets [][]string) bool {
	body, _ := json.Marshal(ingestBody{Baskets: baskets})
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		if ctx.Err() != nil {
			return false
		}
		resp, err := tc.client.Post(tc.cfg.Target+"/ingest", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 300 {
				return true
			}
			if resp.StatusCode < 500 && resp.StatusCode != http.StatusServiceUnavailable {
				break // hard client error: retrying won't help
			}
		}
		tc.mu.Lock()
		tc.plantErrs++
		tc.mu.Unlock()
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return false
		}
		backoff *= 2
	}
	return false
}

// poll hits GET /rules?item=<antecedent> for each not-yet-visible tracer
// every PollEvery until all are visible or PollTimeout expires. The
// freshness sample is (first poll serving the rule) − (last plant ack).
func (tc *tracerControl) poll(ctx context.Context) {
	deadline := time.Now().Add(tc.cfg.PollTimeout)
	tick := time.NewTicker(tc.cfg.PollEvery)
	defer tick.Stop()
	for {
		pending := 0
		for i, tr := range tc.tracers {
			tc.mu.Lock()
			planted, seen := !tc.ackedAt[i].IsZero(), !tc.visibleAt[i].IsZero()
			tc.mu.Unlock()
			if !planted || seen {
				continue
			}
			pending++
			if tc.ruleVisible(ctx, tr) {
				now := time.Now()
				tc.mu.Lock()
				tc.visibleAt[i] = now
				tc.pollLatency = append(tc.pollLatency, now.Sub(tc.ackedAt[i]).Seconds())
				tc.mu.Unlock()
				pending--
			}
		}
		if pending == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			return
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// ruleVisible asks the target for the tracer antecedent's rules and checks
// for one whose antecedent contains A and consequent contains B.
func (tc *tracerControl) ruleVisible(ctx context.Context, tr Tracer) bool {
	if ctx.Err() != nil {
		return false
	}
	resp, err := tc.client.Get(tc.cfg.Target + "/rules?item=" + url.QueryEscape(tr.Antecedent))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false
	}
	var doc struct {
		Rules []struct {
			Antecedent []string `json:"antecedent"`
			Consequent []string `json:"consequent"`
		} `json:"rules"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&doc); err != nil {
		return false
	}
	for _, r := range doc.Rules {
		if contains(r.Antecedent, tr.Antecedent) && contains(r.Consequent, tr.Consequent) {
			return true
		}
	}
	return false
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// result snapshots the tracer outcome as a FreshnessResult.
func (tc *tracerControl) result() *FreshnessResult {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	fr := &FreshnessResult{
		Tracers:     len(tc.tracers),
		PlantTxns:   tc.plantTxns,
		PlantErrors: tc.plantErrs,
	}
	samples := append([]float64(nil), tc.pollLatency...)
	for i := range samples {
		for j := i; j > 0 && samples[j] < samples[j-1]; j-- {
			samples[j], samples[j-1] = samples[j-1], samples[j]
		}
	}
	fr.Visible = len(samples)
	fr.Missed = fr.Tracers - fr.Visible
	fr.SamplesSeconds = samples
	if len(samples) > 0 {
		fr.P50Seconds = secondsQuantile(samples, 0.50)
		fr.P99Seconds = secondsQuantile(samples, 0.99)
		fr.MaxSeconds = samples[len(samples)-1]
	}
	return fr
}

// fetchTxnCount reads the target's /metrics ingest block and returns the
// transactions currently in the log (sealed + active).
func fetchTxnCount(ctx context.Context, client *http.Client, target string) (int, error) {
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		Ingest *struct {
			SealedTxns int `json:"sealedTxns"`
			ActiveTxns int `json:"activeTxns"`
		} `json:"ingest"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		return 0, err
	}
	if doc.Ingest == nil {
		return 0, fmt.Errorf("target has no ingest block in /metrics (not running with -ingest-dir?)")
	}
	return doc.Ingest.SealedTxns + doc.Ingest.ActiveTxns, nil
}

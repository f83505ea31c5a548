package loadsim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testDict is a hand-built dictionary: 20 background items plus two sibling
// groups tracer selection can draw from.
func testDict() Dict {
	d := Dict{SiblingGroups: [][]string{
		{"apparel/boots", "apparel/anorak", "apparel/cap"},
		{"snacks/chips", "snacks/dip", "snacks/salsa"},
	}}
	for i := 0; i < 20; i++ {
		d.Items = append(d.Items, fmt.Sprintf("bg/item%02d", i))
	}
	for _, g := range d.SiblingGroups {
		d.Items = append(d.Items, g...)
	}
	return d
}

func TestChooseTracersDeterministic(t *testing.T) {
	d := testDict()
	tr, err := ChooseTracers(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted-order triple from each group, independent of group-slice order.
	want := []Tracer{
		{Antecedent: "apparel/anorak", Partner: "apparel/boots", Consequent: "apparel/cap"},
		{Antecedent: "snacks/chips", Partner: "snacks/dip", Consequent: "snacks/salsa"},
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("tracers = %+v, want %+v", tr, want)
	}
	if _, err := ChooseTracers(d, 3); err == nil {
		t.Fatal("ChooseTracers accepted more tracers than sibling groups")
	}
}

func TestScriptDeterministicAndTracerFree(t *testing.T) {
	cfg := Config{Seed: 7, Duration: 2 * time.Second, RPS: 200, Tracers: 2,
		DriftPhases: 4, DriftEvery: 50, Zipf: 1.1}
	a, err := Script(cfg, testDict())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Script(cfg, testDict())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, dict) produced different scripts")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := Script(cfg2, testDict())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scripts")
	}

	// Background traffic must never mention a reserved tracer item.
	reserved := map[string]bool{}
	tr, _ := ChooseTracers(testDict(), cfg.Tracers)
	for _, x := range tr {
		reserved[x.Antecedent], reserved[x.Partner], reserved[x.Consequent] = true, true, true
	}
	for _, op := range a {
		if op.Item != "" && reserved[op.Item] {
			t.Fatalf("rules op queries reserved tracer item %q", op.Item)
		}
		for item := range reserved {
			if op.Body != nil && containsBytes(op.Body, item) {
				t.Fatalf("op body mentions reserved tracer item %q", item)
			}
		}
	}
}

func containsBytes(b []byte, s string) bool {
	return len(s) > 0 && len(b) >= len(s) && stringIndex(string(b), s) >= 0
}

func stringIndex(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

// TestScriptBurstShaping verifies the flash-sale window carries ~BurstAmp×
// the baseline op density in virtual time.
func TestScriptBurstShaping(t *testing.T) {
	cfg := Config{Seed: 3, Duration: 10 * time.Second, RPS: 100,
		BurstStart: 3 * time.Second, BurstLen: 2 * time.Second, BurstAmp: 4}
	ops, err := Script(cfg, testDict())
	if err != nil {
		t.Fatal(err)
	}
	var inBurst, outside int
	for _, op := range ops {
		if op.At >= cfg.BurstStart && op.At < cfg.BurstStart+cfg.BurstLen {
			inBurst++
		} else {
			outside++
		}
	}
	wantBurst := cfg.BurstAmp * cfg.RPS * cfg.BurstLen.Seconds() // 800
	wantOut := cfg.RPS * (cfg.Duration - cfg.BurstLen).Seconds() // 800
	for _, c := range []struct {
		name string
		got  int
		want float64
	}{{"burst window", inBurst, wantBurst}, {"baseline", outside, wantOut}} {
		if ratio := float64(c.got) / c.want; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s ops = %d, want ≈ %.0f (ratio %.3f)", c.name, c.got, c.want, ratio)
		}
	}
}

// fakeDaemon implements just enough of the negmined wire surface for the
// simulator: /ingest acks baskets, /score and /rules answer, and /rules
// reveals a tracer rule a fixed delay after the last ingest.
type fakeDaemon struct {
	mu          sync.Mutex
	log         []string // "METHOD path body" in arrival order
	txns        int
	lastIngest  time.Time
	revealAfter time.Duration // 0 = never reveal
	tracer      Tracer
}

func (f *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var in struct {
			Baskets [][]string `json:"baskets"`
		}
		if err := json.Unmarshal(body, &in); err != nil || len(in.Baskets) == 0 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.log = append(f.log, "POST /ingest "+string(body))
		f.txns += len(in.Baskets)
		f.lastIngest = time.Now()
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"accepted":%d}`, len(in.Baskets))
	})
	mux.HandleFunc("POST /score", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.log = append(f.log, "POST /score "+string(body))
		f.mu.Unlock()
		fmt.Fprint(w, `{"matches":[]}`)
	})
	mux.HandleFunc("GET /rules", func(w http.ResponseWriter, r *http.Request) {
		item := r.URL.Query().Get("item")
		f.mu.Lock()
		f.log = append(f.log, "GET /rules "+item)
		visible := f.revealAfter > 0 && !f.lastIngest.IsZero() &&
			time.Since(f.lastIngest) >= f.revealAfter && item == f.tracer.Antecedent
		f.mu.Unlock()
		if visible {
			fmt.Fprintf(w, `{"item":%q,"rules":[{"antecedent":[%q],"consequent":[%q],"ruleInterest":1.0}]}`,
				item, f.tracer.Antecedent, f.tracer.Consequent)
			return
		}
		fmt.Fprintf(w, `{"item":%q,"rules":[]}`, item)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		n := f.txns
		f.mu.Unlock()
		fmt.Fprintf(w, `{"ingest":{"sealedTxns":%d,"activeTxns":0}}`, n)
	})
	return mux
}

func (f *fakeDaemon) requests() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

// TestRunDeterministicStream replays the same config twice against fresh
// fake daemons with a single worker and checks the daemon saw the identical
// request sequence — the simulator's core reproducibility contract.
func TestRunDeterministicStream(t *testing.T) {
	runOnce := func() []string {
		fd := &fakeDaemon{}
		srv := httptest.NewServer(fd.handler())
		defer srv.Close()
		cfg := Config{Target: srv.URL, Seed: 11, Duration: 300 * time.Millisecond,
			RPS: 400, Workers: 1, Tracers: 0}
		res, err := Run(context.Background(), cfg, testDict())
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors5xx() != 0 {
			t.Fatalf("fake daemon produced 5xx: %+v", res.Endpoints)
		}
		return fd.requests()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("no requests recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("request streams differ across identical runs:\nrun1 %d reqs, run2 %d reqs", len(a), len(b))
	}
}

// TestRunFreshnessBetweenPolls checks the freshness math when the tracer
// rule appears between polls: the sample must span plant-ack → first
// successful poll, so it lands in [reveal, reveal + poll cadence + slack].
func TestRunFreshnessBetweenPolls(t *testing.T) {
	reveal := 250 * time.Millisecond
	fd := &fakeDaemon{revealAfter: reveal}
	srv := httptest.NewServer(fd.handler())
	defer srv.Close()

	dict := testDict()
	tr, err := ChooseTracers(dict, 1)
	if err != nil {
		t.Fatal(err)
	}
	fd.tracer = tr[0]

	cfg := Config{Target: srv.URL, Seed: 5, Duration: 100 * time.Millisecond,
		RPS: 50, Workers: 2, Tracers: 1,
		MixScore:   1, // keep scripted load off /ingest so only plants move the clock
		MinSupport: 0.01, SeedTxns: 100,
		PollEvery: 50 * time.Millisecond, PollTimeout: 5 * time.Second}
	res, err := Run(context.Background(), cfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Freshness
	if fr == nil {
		t.Fatal("no freshness result")
	}
	if fr.Tracers != 1 || fr.Visible != 1 || fr.Missed != 0 {
		t.Fatalf("tracer accounting = %+v", fr)
	}
	if fr.PlantTxns == 0 {
		t.Fatal("no plant transactions recorded")
	}
	got := time.Duration(fr.P50Seconds * float64(time.Second))
	// Lower bound: the rule cannot be seen before the daemon reveals it.
	// Upper bound: one poll interval past reveal, plus scheduling slack.
	if got < reveal-50*time.Millisecond || got > reveal+cfg.PollEvery+400*time.Millisecond {
		t.Fatalf("freshness sample %v outside [%v, %v]", got, reveal, reveal+cfg.PollEvery)
	}
	if fr.P99Seconds < fr.P50Seconds || fr.MaxSeconds < fr.P99Seconds {
		t.Fatalf("quantile ordering violated: %+v", fr)
	}

	// The summary negload prints names every endpoint that saw traffic
	// and the freshness line.
	var sum strings.Builder
	res.Print(&sum)
	for _, want := range []string{"offered 50 rps", "score ", "freshness: 1/1 tracers visible"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

// TestRunNeverVisible checks the missed-tracer path: a daemon that never
// serves the rule yields Visible 0 / Missed 1 after PollTimeout.
func TestRunNeverVisible(t *testing.T) {
	fd := &fakeDaemon{} // revealAfter 0: never visible
	srv := httptest.NewServer(fd.handler())
	defer srv.Close()
	dict := testDict()
	cfg := Config{Target: srv.URL, Seed: 5, Duration: 50 * time.Millisecond,
		RPS: 40, Workers: 2, Tracers: 1, MixScore: 1,
		MinSupport: 0.01, SeedTxns: 50,
		PollEvery: 20 * time.Millisecond, PollTimeout: 200 * time.Millisecond}
	res, err := Run(context.Background(), cfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Freshness == nil || res.Freshness.Visible != 0 || res.Freshness.Missed != 1 {
		t.Fatalf("freshness = %+v, want 0 visible / 1 missed", res.Freshness)
	}
}

func TestPlantSize(t *testing.T) {
	cfg := Config{MinSupport: 0.02}.withDefaults()
	k, err := plantSize(cfg, 1000, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point: each side must be ≥ 2×minsup of the final count.
	final := 1000 + 500 + 2*k*2
	if float64(k) < 2*cfg.MinSupport*float64(final) {
		t.Fatalf("plant size %d below 2×minsup of final %d txns", k, final)
	}
	if float64(k) > 2*cfg.MinSupport*float64(final)+2 {
		t.Fatalf("plant size %d overshoots (final %d)", k, final)
	}
	if _, err := plantSize(Config{MinSupport: 0.2}.withDefaults(), 0, 0, 10); err == nil {
		t.Fatal("infeasible tracer count accepted")
	}
}

// TestRunLatencyIncludesQueueing: latency runs from when an op was due, not
// from when the one worker got to send it. The target holds its first request
// 50 ms while an op falls due every millisecond, so the ops queued behind it
// waited up to 50 ms, and p99 must show that wait.
func TestRunLatencyIncludesQueueing(t *testing.T) {
	var stall sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stall.Do(func() { time.Sleep(50 * time.Millisecond) })
		fmt.Fprint(w, `{"rules":[]}`)
	}))
	defer srv.Close()
	cfg := Config{Target: srv.URL, Seed: 1, Duration: 500 * time.Millisecond,
		RPS: 1000, Workers: 1, MixRules: 1}
	res, err := Run(context.Background(), cfg, testDict())
	if err != nil {
		t.Fatal(err)
	}
	ep := res.Endpoint("rules")
	if ep.OK != int64(res.Ops) {
		t.Fatalf("%d of %d ops answered", ep.OK, res.Ops)
	}
	if ep.P99Ms < 25 {
		t.Fatalf("p99 %.2f ms over %d ops: the ops queued behind a 50 ms stall report no wait", ep.P99Ms, res.Ops)
	}
}

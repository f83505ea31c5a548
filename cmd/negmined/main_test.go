package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/bench"
	"negmine/internal/cli"
	"negmine/internal/report"
	"negmine/internal/serve"
	"negmine/internal/txdb"
)

// buildDaemon parses args and builds the daemon through build, as run does,
// minus the listening socket and the background loops. out gets the
// daemon's log lines; the daemon is closed when the test ends.
func buildDaemon(t *testing.T, out io.Writer, args ...string) (*daemon, *config) {
	t.Helper()
	cfg, err := parseFlags(args, out)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	d, err := build(context.Background(), cfg, "", out, serve.WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("build(%v): %v", args, err)
	}
	t.Cleanup(d.close)
	return d, cfg
}

// newDaemon is buildDaemon's server and its handler.
func newDaemon(t *testing.T, args ...string) (*serve.Server, http.Handler) {
	t.Helper()
	d, _ := buildDaemon(t, os.Stderr, args...)
	return d.srv, d.srv.Handler()
}

func getJSON(t *testing.T, h http.Handler, url string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

func postJSON(t *testing.T, h http.Handler, url, body string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
	if out != nil && (rec.Code == http.StatusOK || rec.Code == http.StatusAccepted) {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", url, err)
		}
	}
	return rec.Code
}

type rulesResp struct {
	Expanded []string                    `json:"expanded"`
	Rules    []report.NegativeRuleRecord `json:"rules"`
}

type scoreResp struct {
	Matches []struct {
		report.NegativeRuleRecord
		Triggers map[string]string `json:"triggers"`
	} `json:"matches"`
}

// TestRoundTripPaperExample is the full mine → JSON → serve → query loop on
// the paper's §2.1.1 worked example: the report written by the miner (the
// `negmine -format json` output) is served by negmined and queried back.
func TestRoundTripPaperExample(t *testing.T) {
	tax, db, err := bench.PaperExample()
	if err != nil {
		t.Fatalf("PaperExample: %v", err)
	}
	res, err := negmine.MineNegative(db, tax, negmine.NegativeOptions{MinSupport: 0.04, MinRI: 0.5})
	if err != nil {
		t.Fatalf("MineNegative: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("worked example mined no rules")
	}

	dir := t.TempDir()
	repPath := filepath.Join(dir, "rules.json")
	taxPath := filepath.Join(dir, "tax.txt")
	rf, err := os.Create(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := negmine.WriteNegativeJSON(rf, res, 0.04, 0.5, tax.Name); err != nil {
		t.Fatalf("WriteNegativeJSON: %v", err)
	}
	rf.Close()
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tax.Write(tf); err != nil {
		t.Fatalf("taxonomy Write: %v", err)
	}
	tf.Close()

	_, h := newDaemon(t, "-report", repPath, "-tax", taxPath)

	// The worked example's headline rule is perrier =/=> bryers. A query
	// for the leaf bryers must surface it (consequent match) together with
	// rules on bryers' ancestors, via the taxonomy ancestor index.
	var rr rulesResp
	getJSON(t, h, "/rules?item=bryers", &rr)
	if len(rr.Expanded) < 2 || rr.Expanded[1] != "frozenyogurt" {
		t.Fatalf("bryers expansion = %v", rr.Expanded)
	}
	hasRule := func(rules []report.NegativeRuleRecord, ante, cons string) bool {
		for _, r := range rules {
			if len(r.Antecedent) == 1 && r.Antecedent[0] == ante &&
				len(r.Consequent) == 1 && r.Consequent[0] == cons {
				return true
			}
		}
		return false
	}
	if !hasRule(rr.Rules, "perrier", "bryers") {
		t.Fatalf("perrier =/=> bryers not served for bryers: %+v", rr.Rules)
	}
	// The ancestor index at work: a rule mined at category level
	// (frozenyogurt) is surfaced for its leaf descendant bryers.
	if !hasRule(rr.Rules, "perrier", "frozenyogurt") {
		t.Fatalf("perrier =/=> frozenyogurt not surfaced via ancestor index: %+v", rr.Rules)
	}

	// Scoring a perrier basket triggers the headline rule: this customer
	// is unlikely to buy bryers.
	var sr scoreResp
	if code := postJSON(t, h, "/score", `{"basket":["perrier"]}`, &sr); code != http.StatusOK {
		t.Fatalf("/score: %d", code)
	}
	found := false
	for _, m := range sr.Matches {
		if len(m.Consequent) == 1 && m.Consequent[0] == "bryers" {
			found = true
			if m.Triggers["perrier"] != "perrier" {
				t.Fatalf("trigger = %v", m.Triggers)
			}
		}
	}
	if !found {
		t.Fatalf("score(perrier) missed bryers: %+v", sr.Matches)
	}

	// Every served rule round-trips exactly from the mined result.
	st := negmine.NewRuleStore(res, tax.Name)
	for _, r := range rr.Rules {
		e, ok := st.Lookup(r.Antecedent, r.Consequent)
		if !ok {
			t.Fatalf("served rule %v =/=> %v not in mined store", r.Antecedent, r.Consequent)
		}
		if e.RI != r.RuleInterest || e.Expected != r.ExpectedSupport || e.Actual != r.ActualSupport {
			t.Fatalf("served rule %v diverged from mined entry %+v", r, e)
		}
	}
}

// TestEndToEndMinedShortDataset starts negmined in mining mode on the
// paper's Short dataset (scaled), lets it mine its own snapshot, and
// checks /rules and /score answers against an independent run of the same
// pipeline.
func TestEndToEndMinedShortDataset(t *testing.T) {
	ds, err := bench.Short(100, 1) // 500 transactions, full 8,000-item universe
	if err != nil {
		t.Fatalf("Short: %v", err)
	}
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "short.nmtx")
	taxPath := filepath.Join(dir, "tax.txt")
	if err := txdb.WriteFile(dataPath, ds.DB); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	tf, err := os.Create(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Tax.Write(tf); err != nil {
		t.Fatalf("taxonomy Write: %v", err)
	}
	tf.Close()

	srv, h := newDaemon(t,
		"-data", dataPath, "-tax", taxPath, "-minsup", "0.02", "-minri", "0.5")

	snap := srv.Snapshot()
	if snap.Len() == 0 {
		t.Fatal("daemon mined no rules from the Short dataset")
	}

	// Reference run: same files, same options, through the public API.
	tax, err := loadTaxonomy(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := negmine.OpenDB(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := negmine.MineNegativeReport(db, tax, negmine.NegativeOptions{MinSupport: 0.02, MinRI: 0.5})
	if err != nil {
		t.Fatalf("reference mine: %v", err)
	}
	want := negmine.RuleStoreFromReport(rep)
	if snap.Len() != want.Len() {
		t.Fatalf("daemon serves %d rules, reference mined %d", snap.Len(), want.Len())
	}

	// /rules: for every item of the first few reference rules, the served
	// answer must contain that rule with identical measurements.
	checked := 0
	for _, e := range want.All() {
		if checked >= 5 {
			break
		}
		checked++
		item := e.Antecedent[0]
		var rr rulesResp
		getJSON(t, h, "/rules?item="+item, &rr)
		found := false
		for _, r := range rr.Rules {
			if got, ok := want.Lookup(r.Antecedent, r.Consequent); !ok {
				t.Fatalf("served rule %v =/=> %v not mined", r.Antecedent, r.Consequent)
			} else if got.RI != r.RuleInterest {
				t.Fatalf("RI mismatch for %v: served %v, mined %v", r.Antecedent, r.RuleInterest, got.RI)
			}
			if fmt.Sprint(r.Antecedent) == fmt.Sprint(e.Antecedent) &&
				fmt.Sprint(r.Consequent) == fmt.Sprint(e.Consequent) {
				found = true
			}
		}
		if !found {
			t.Fatalf("/rules?item=%s did not return rule %v =/=> %v", item, e.Antecedent, e.Consequent)
		}

		// /score with the full antecedent as basket must trigger the rule.
		basket, _ := json.Marshal(e.Antecedent)
		var sr scoreResp
		if code := postJSON(t, h, "/score", `{"basket":`+string(basket)+`}`, &sr); code != http.StatusOK {
			t.Fatalf("/score: %d", code)
		}
		found = false
		for _, m := range sr.Matches {
			if fmt.Sprint(m.Antecedent) == fmt.Sprint(e.Antecedent) &&
				fmt.Sprint(m.Consequent) == fmt.Sprint(e.Consequent) {
				found = true
			}
		}
		if !found {
			t.Fatalf("score(%v) did not trigger its own rule", e.Antecedent)
		}
	}

	// /healthz reports the mined snapshot.
	var health struct {
		Status   string `json:"status"`
		Snapshot struct {
			Rules  int    `json:"rules"`
			Source string `json:"source"`
		} `json:"snapshot"`
	}
	getJSON(t, h, "/healthz", &health)
	if health.Status != "ok" || health.Snapshot.Rules != want.Len() ||
		!strings.Contains(health.Snapshot.Source, "short.nmtx") {
		t.Fatalf("healthz = %+v", health)
	}

	// Hot re-mine: /reload?wait=1 re-runs the pipeline and swaps; the rule
	// set is unchanged (same inputs) and metrics record the reload.
	if code := postJSON(t, h, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatalf("/reload: %d", code)
	}
	if got := srv.Snapshot().Len(); got != want.Len() {
		t.Fatalf("after re-mine: %d rules, want %d", got, want.Len())
	}
	var metrics struct {
		Reloads struct {
			OK int64 `json:"ok"`
		} `json:"reloads"`
	}
	getJSON(t, h, "/metrics", &metrics)
	if metrics.Reloads.OK != 1 {
		t.Fatalf("reloads.ok = %d, want 1", metrics.Reloads.OK)
	}
}

// TestReportReloadPicksUpNewFile overwrites the served report and reloads:
// the daemon must swap to the new rule set.
func TestReportReloadPicksUpNewFile(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "rules.json")
	taxPath := filepath.Join(dir, "tax.txt")
	writeReport := func(ri float64) {
		rep := &report.NegativeReport{
			MinSupport: 0.02, MinRI: 0.5,
			Rules: []report.NegativeRuleRecord{
				{Antecedent: []string{"pepsi"}, Consequent: []string{"chips"}, RuleInterest: ri},
			},
		}
		raw, _ := json.Marshal(rep)
		if err := os.WriteFile(repPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeReport(0.6)
	if err := os.WriteFile(taxPath, []byte("soft-drinks pepsi\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, h := newDaemon(t, "-report", repPath, "-tax", taxPath)
	var rr rulesResp
	getJSON(t, h, "/rules?item=pepsi", &rr)
	if len(rr.Rules) != 1 || rr.Rules[0].RuleInterest != 0.6 {
		t.Fatalf("initial rules = %+v", rr.Rules)
	}

	writeReport(0.9)
	if code := postJSON(t, h, "/reload?wait=1", "", nil); code != http.StatusOK {
		t.Fatalf("/reload: %d", code)
	}
	getJSON(t, h, "/rules?item=pepsi", &rr)
	if len(rr.Rules) != 1 || rr.Rules[0].RuleInterest != 0.9 {
		t.Fatalf("post-reload rules = %+v", rr.Rules)
	}
}

// TestParseFlagsDoesNoIO parses a daemon that names every store — streaming
// with a -data seed, an HA primary with its seglog store, a snapshot store, a
// cluster shard — with every path under a directory that does not exist.
// Parsing succeeds and creates nothing: opening the stores is build's job.
func TestParseFlagsDoesNoIO(t *testing.T) {
	root := filepath.Join(t.TempDir(), "absent")
	at := func(name string) string { return filepath.Join(root, name) }
	cfg, err := parseFlags([]string{
		"-ingest-dir", at("log"), "-data", at("seed.txt"), "-tax", at("tax.txt"),
		"-ha-role", "primary", "-seglog-store", at("seglog"),
		"-snapshot-dir", at("snaps"),
		"-cluster-join", "http://127.0.0.1:1", "-shard", "1/3",
	}, io.Discard)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("parseFlags touched %s (stat: %v)", root, err)
	}
	if cfg.ingestDir != at("log") || cfg.seglogStore != at("seglog") || cfg.snapDir != at("snaps") ||
		cfg.haRole != haRolePrimary || cfg.spec != (shardSpec{1, 3}) {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestParseFlagsValidation(t *testing.T) {
	var sink strings.Builder
	if _, err := parseFlags([]string{"-report", "x.json"}, &sink); err == nil {
		t.Fatal("missing -tax accepted")
	}
	if _, err := parseFlags([]string{"-tax", "t.txt"}, &sink); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := parseFlags([]string{"-tax", "t.txt", "-report", "r.json", "-data", "d.txt"}, &sink); err == nil {
		t.Fatal("both sources accepted")
	}
	// -h usage goes to the provided writer and documents the report flow.
	sink.Reset()
	if _, err := parseFlags([]string{"-h"}, &sink); err == nil {
		t.Fatal("-h did not error")
	}
	if !strings.Contains(sink.String(), "negmine -format json") {
		t.Fatalf("usage text missing report provenance:\n%s", sink.String())
	}
}

// TestGovernanceFlagValidation covers the resource-governance flags: invalid
// combinations must come back as usage errors (exit 2 in main), valid ones
// must build the governor and budget they describe.
func TestGovernanceFlagValidation(t *testing.T) {
	var sink strings.Builder
	base := []string{"-tax", "t.txt", "-report", "r.json"}
	bad := [][]string{
		{"-max-queue", "10"},                         // queue without a concurrency ceiling
		{"-max-concurrent", "-1"},                    // negative ceiling
		{"-max-queue", "-3", "-max-concurrent", "4"}, // negative queue
		{"-request-timeout", "-1s"},                  // negative duration
		{"-drain", "-10s"},
		{"-poll", "-2s"},
		{"-poll", "0"},
		{"-max-body", "wat"},
		{"-mem-budget", "wat"},
	}
	for _, extra := range bad {
		_, err := parseFlags(append(append([]string{}, base...), extra...), &sink)
		if err == nil {
			t.Fatalf("%v accepted", extra)
		}
		if code := cli.ExitCode(err); code != 2 {
			t.Fatalf("%v: error %v exits %d, want 2 (usage)", extra, err, code)
		}
	}

	// Valid: admission control on, bounded queue, body bound.
	repPath, taxPath := writeExampleFiles(t)
	d, cfg := buildDaemon(t, io.Discard, "-tax", taxPath, "-report", repPath,
		"-max-concurrent", "8", "-max-queue", "32", "-max-body", "64KiB")
	var m struct {
		Govern *struct {
			MaxConcurrent int `json:"maxConcurrent"`
			MaxQueue      int `json:"maxQueue"`
		} `json:"govern"`
	}
	getJSON(t, d.srv.Handler(), "/metrics", &m)
	if m.Govern == nil || m.Govern.MaxConcurrent != 8 || m.Govern.MaxQueue != 32 {
		t.Fatalf("-max-concurrent 8 -max-queue 32 built governor %+v", m.Govern)
	}
	if cfg.maxBody != 64<<10 {
		t.Fatalf("maxBody = %d, want %d", cfg.maxBody, 64<<10)
	}

	// No governance flags: no governor, default body bound.
	d, cfg = buildDaemon(t, io.Discard, "-tax", taxPath, "-report", repPath)
	m.Govern = nil
	getJSON(t, d.srv.Handler(), "/metrics", &m)
	if m.Govern != nil {
		t.Fatal("governor built without governance flags")
	}
	if cfg.maxBody != 0 {
		t.Fatalf("maxBody = %d, want 0 (serve default)", cfg.maxBody)
	}

	// -mem-budget off and explicit sizes both parse.
	if _, err := parseFlags(append(append([]string{}, base...), "-mem-budget", "off"), &sink); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags(append(append([]string{}, base...), "-mem-budget", "512MiB"), &sink); err != nil {
		t.Fatal(err)
	}

	// Usage errors exit 2, -h exits 0.
	_, err := parseFlags([]string{"-tax", "t", "-report", "r", "-max-queue", "1"}, &sink)
	if code := cli.ExitCode(err); code != 2 {
		t.Fatalf("usage error %v exits %d, want 2", err, code)
	}
	_, err = parseFlags([]string{"-h"}, &sink)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	if code := cli.ExitCode(err); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
}

// TestDaemonLinksNoBatchOnlyPackages pins the daemon's import graph: it
// reaches the miner through the internal packages it uses, not through the
// root facade, which would link the data generator and the experiment
// harness into a process that runs neither.
func TestDaemonLinksNoBatchOnlyPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list; skipped in -short")
	}
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	banned := map[string]bool{
		"negmine":                  true,
		"negmine/internal/datagen": true,
		"negmine/internal/bench":   true,
	}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("cmd/negmined depends on %s", pkg)
		}
	}
}

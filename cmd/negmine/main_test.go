package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/cli"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
)

func writeFixtures(t *testing.T) (dataPath, taxPath string) {
	t.Helper()
	dir := t.TempDir()
	taxPath = filepath.Join(dir, "tax.txt")
	dataPath = filepath.Join(dir, "baskets.txt")
	tax := `
beverages soda
beverages juice
soda coke
soda pepsi
snacks chips
snacks pretzels
`
	baskets := strings.Repeat("coke chips\n", 8) +
		"coke\ncoke\npepsi\npepsi\npepsi\npepsi\npepsi chips\n" +
		"juice chips\njuice chips\ncoke pretzels\ncoke pretzels\npretzels\n"
	if err := os.WriteFile(taxPath, []byte(tax), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dataPath, []byte(baskets), 0o644); err != nil {
		t.Fatal(err)
	}
	return dataPath, taxPath
}

func TestRunEndToEnd(t *testing.T) {
	data, tax := writeFixtures(t)
	var out bytes.Buffer
	err := run([]string{
		"-data", data, "-tax", tax,
		"-minsup", "0.15", "-minri", "0.3",
		"-positive", "-negatives",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"loaded 20 transactions",
		"negative rules:",
		"{pepsi} =/=> {chips}",
		"positive generalized rules",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBinaryInput(t *testing.T) {
	data, tax := writeFixtures(t)
	// Convert the basket file to binary and mine that.
	dict := negmine.NewDictionary()
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	db, err := negmine.ReadBaskets(f, dict)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_ = db
	// The binary path shares ids with a fresh dictionary, which will not
	// line up with the taxonomy's ids — so instead verify the loader path
	// rejects a malformed .nmtx and accepts a real one structurally.
	bin := filepath.Join(t.TempDir(), "x.nmtx")
	if err := negmine.SaveDB(bin, db); err != nil {
		t.Fatal(err)
	}
	got, err := loadData(bin, dict)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != db.Count() {
		t.Errorf("binary loadData count = %d, want %d", got.Count(), db.Count())
	}
	var out bytes.Buffer
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "missing.nmtx"), "-tax", tax}, &out); err == nil {
		t.Error("missing binary accepted")
	}
}

// TestBinaryInputSameRulesUnderEveryBackend: a file-backed database gets no
// engine of its own — the default backend and both named ones print the same
// report, timing lines aside — and its gzipped twin mines the same report.
func TestBinaryInputSameRulesUnderEveryBackend(t *testing.T) {
	data, taxPath := writeFixtures(t)
	tf, err := os.Open(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := negmine.ParseTaxonomy(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	db, err := negmine.ReadBaskets(f, tax.Dictionary()) // ids the taxonomy knows
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "x.nmtx")
	if err := negmine.SaveDB(bin, db); err != nil {
		t.Fatal(err)
	}
	// Its gzipped twin is binary too, not basket text.
	if err := negmine.SaveDB(bin+".gz", db); err != nil {
		t.Fatal(err)
	}
	reports := map[string]string{}
	for _, backend := range []string{"auto", "bitmap", "hashtree", "gzip"} {
		data, flag := bin, backend
		if backend == "gzip" {
			data, flag = bin+".gz", "auto"
		}
		var out bytes.Buffer
		err := run([]string{"-data", data, "-tax", taxPath, "-minsup", "0.15", "-minri", "0.3", "-negatives", "-backend", flag}, &out)
		if err != nil {
			t.Fatalf("-backend %s: %v", backend, err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, " in ") && !strings.Contains(line, "(candidate generation") {
				kept = append(kept, line)
			}
		}
		reports[backend] = strings.Join(kept, "\n")
	}
	if !strings.Contains(reports["auto"], "{pepsi} =/=> {chips}") {
		t.Fatalf("default backend mined no rule from the binary file:\n%s", reports["auto"])
	}
	for _, backend := range []string{"bitmap", "hashtree", "gzip"} {
		if reports[backend] != reports["auto"] {
			t.Errorf("%s prints a different report than the default:\n%s\n--- auto ---\n%s", backend, reports[backend], reports["auto"])
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	data, tax := writeFixtures(t)
	var out bytes.Buffer
	cases := [][]string{
		{},
		{"-data", data},
		{"-tax", tax},
		{"-data", data, "-tax", tax, "-alg", "wrong"},
		{"-data", data, "-tax", tax, "-minsup", "0"},
	}
	for i, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("case %d: args %v accepted", i, args)
		}
	}
}

// TestRunRejectsNaNThresholds: a NaN threshold is outside every accepted
// range, so each fails with its validation error instead of mining.
func TestRunRejectsNaNThresholds(t *testing.T) {
	data, tax := writeFixtures(t)
	for _, c := range []struct{ flags, want string }{
		{"-minsup NaN", "MinSupport = NaN"},
		{"-minri NaN", "MinRI = NaN"},
		{"-positive -minconf NaN", "minConf = NaN"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-data", data, "-tax", tax}, strings.Fields(c.flags)...), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.flags, err, c.want)
		}
	}
}

func TestRunJSONAndCSV(t *testing.T) {
	data, tax := writeFixtures(t)
	var out bytes.Buffer
	err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3", "-format", "json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if _, ok := decoded["rules"]; !ok {
		t.Error("JSON missing rules key")
	}

	out.Reset()
	err = run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3", "-format", "csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "antecedent,consequent") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}

	if err := run([]string{"-data", data, "-tax", tax, "-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestUsageMentionsNegmined pins that -h documents the report-JSON handoff
// to the serving daemon.
func TestUsageMentionsNegmined(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-h"}, &out)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if code := cli.ExitCode(err); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	if !strings.Contains(out.String(), "negmined") {
		t.Errorf("usage does not mention negmined:\n%s", out.String())
	}
}

// TestJSONServeRoundTrip walks the full pipeline the usage text promises:
// mine with -format json, load the report into a serving snapshot, and
// query it back for the known rule {pepsi} =/=> {chips}.
func TestJSONServeRoundTrip(t *testing.T) {
	data, taxPath := writeFixtures(t)
	var out bytes.Buffer
	err := run([]string{"-data", data, "-tax", taxPath, "-minsup", "0.15", "-minri", "0.3", "-format", "json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rulestore.Load(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("report JSON does not load as a rule store: %v", err)
	}
	f, err := os.Open(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := negmine.ParseTaxonomy(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.BuildSnapshot(st, tax, serve.Meta{Source: "test"})
	if snap.Len() != st.Len() {
		t.Fatalf("snapshot has %d rules, store has %d", snap.Len(), st.Len())
	}
	isPepsiChips := func(e rulestore.Entry) bool {
		return len(e.Antecedent) == 1 && e.Antecedent[0] == "pepsi" &&
			len(e.Consequent) == 1 && e.Consequent[0] == "chips"
	}
	hasPepsiChips := func(got []rulestore.Entry) bool {
		for _, e := range got {
			if isPepsiChips(e) {
				return true
			}
		}
		return false
	}
	// The rule is reachable from both sides of the index.
	if got := snap.QueryEntries("pepsi", 0, 0); !hasPepsiChips(got) {
		t.Errorf("QueryItem(pepsi) missing {pepsi} =/=> {chips}: %v", got)
	}
	if got := snap.QueryEntries("chips", 0, 0); !hasPepsiChips(got) {
		t.Errorf("QueryItem(chips) missing {pepsi} =/=> {chips}: %v", got)
	}
	// And a basket containing pepsi triggers it.
	triggered := false
	for _, m := range snap.Matches([]string{"pepsi"}, 0, 0) {
		if isPepsiChips(m.Rule) && m.Triggers["pepsi"] == "pepsi" {
			triggered = true
		}
	}
	if !triggered {
		t.Error("Score([pepsi]) did not trigger {pepsi} =/=> {chips}")
	}
}

func TestRunSubstitutesAndFilters(t *testing.T) {
	data, tax := writeFixtures(t)
	dir := t.TempDir()
	subs := filepath.Join(dir, "subs.txt")
	os.WriteFile(subs, []byte("# cola substitutes\ncoke pepsi\n"), 0o644)
	var out bytes.Buffer
	err := run([]string{
		"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3",
		"-subs", subs, "-filter", "absolute",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "negative rules:") {
		t.Errorf("output missing rules section:\n%s", out.String())
	}
	// Unknown item name in substitutes file.
	os.WriteFile(subs, []byte("coke nonexistent\n"), 0o644)
	if err := run([]string{"-data", data, "-tax", tax, "-subs", subs}, &out); err == nil {
		t.Error("unknown substitute item accepted")
	}
	if err := run([]string{"-data", data, "-tax", tax, "-filter", "weird"}, &out); err == nil {
		t.Error("unknown filter accepted")
	}
}

func TestRunInterestingPrune(t *testing.T) {
	data, tax := writeFixtures(t)
	var plain, pruned bytes.Buffer
	if err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-positive"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-positive", "-interesting", "1.1"}, &pruned); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pruned.String(), "R-interesting at 1.10") {
		t.Errorf("pruned header missing:\n%s", pruned.String())
	}
	if strings.Count(pruned.String(), "=>") > strings.Count(plain.String(), "=>") {
		t.Error("pruning increased rule count")
	}
}

func TestRunExplain(t *testing.T) {
	data, tax := writeFixtures(t)
	var out bytes.Buffer
	err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3", "-explain"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "derivations:") || !strings.Contains(out.String(), "uniformity assumption") {
		t.Errorf("explain output missing:\n%s", out.String())
	}
}

func TestRunDiff(t *testing.T) {
	data, tax := writeFixtures(t)
	// First run exported as JSON becomes the baseline.
	var baseline bytes.Buffer
	if err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3", "-format", "json"}, &baseline); err != nil {
		t.Fatal(err)
	}
	prev := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(prev, baseline.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Second identical run diffed against it: everything unchanged.
	var out bytes.Buffer
	if err := run([]string{"-data", data, "-tax", tax, "-minsup", "0.15", "-minri", "0.3", "-diff", prev}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 appeared, 0 disappeared, 0 changed") {
		t.Errorf("diff output unexpected:\n%s", out.String())
	}
	if err := run([]string{"-data", data, "-tax", tax, "-diff", "/missing.json"}, &out); err == nil {
		t.Error("missing diff baseline accepted")
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/report"
	"negmine/internal/serve"
)

// writeSnap builds a snapshot from a hand-written report and writes it as a
// .nsnap file, returning its path.
func writeSnap(t *testing.T, dir, name string, gen uint64, rules []report.NegativeRuleRecord) string {
	t.Helper()
	tax, err := negmine.ParseTaxonomy(strings.NewReader("drinks beer\ndrinks soda\nfood chips\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep := &report.NegativeReport{MinSupport: 0.02, MinRI: 0.5, Rules: rules}
	snap := serve.BuildSnapshot(negmine.RuleStoreFromReport(rep), tax,
		serve.Meta{Source: "test fixture", MinSupport: 0.02, MinRI: 0.5})
	path := filepath.Join(dir, name)
	if err := serve.WriteSnapshotFile(path, snap, gen); err != nil {
		t.Fatal(err)
	}
	return path
}

func rule(ante, cons string, ri float64) report.NegativeRuleRecord {
	return report.NegativeRuleRecord{
		Antecedent: []string{ante}, Consequent: []string{cons},
		RuleInterest: ri, ExpectedSupport: 0.1, ActualSupport: 0.01,
	}
}

func TestSnapInfo(t *testing.T) {
	path := writeSnap(t, t.TempDir(), "a.nsnap", 7, []report.NegativeRuleRecord{
		rule("beer", "chips", 1.5),
		rule("soda", "chips", 0.8),
	})
	var out bytes.Buffer
	if err := run([]string{"snap", "info", path}, &out); err != nil {
		t.Fatalf("snap info: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"version:    3",
		"generation: 7",
		"rules:      2",
		"thresholds: minsup 0.02, minri 0.5",
		"sections:",
		"meta", "ri", "name-blob", "frag-blob",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("snap info output missing %q:\n%s", want, s)
		}
	}
}

func TestSnapVerify(t *testing.T) {
	dir := t.TempDir()
	path := writeSnap(t, dir, "a.nsnap", 1, []report.NegativeRuleRecord{rule("beer", "chips", 1.5)})
	var out bytes.Buffer
	if err := run([]string{"snap", "verify", path}, &out); err != nil {
		t.Fatalf("snap verify on a good file: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("verify output:\n%s", out.String())
	}

	// Flip one payload byte: verify must report the bad section and fail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10
	bad := filepath.Join(dir, "bad.nsnap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"snap", "verify", bad}, &out); err == nil {
		t.Fatalf("snap verify accepted a corrupt file:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("verify did not flag the bad section:\n%s", out.String())
	}
}

func TestSnapDiff(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.nsnap", 1, []report.NegativeRuleRecord{
		rule("beer", "chips", 1.5),
		rule("soda", "chips", 0.8),
		rule("drinks", "food", 0.6),
	})
	new_ := writeSnap(t, dir, "new.nsnap", 2, []report.NegativeRuleRecord{
		rule("beer", "chips", 1.5), // unchanged
		rule("soda", "chips", 0.9), // RI changed
		rule("beer", "soda", 0.7),  // added
		// drinks =/=> food removed
	})
	var out bytes.Buffer
	if err := run([]string{"snap", "diff", old, new_}, &out); err != nil {
		t.Fatalf("snap diff: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"added 1, removed 1, changed 1",
		"+ beer =/=> soda  RI 0.7",
		"- drinks =/=> food  RI 0.6",
		"~ soda =/=> chips  RI 0.8 -> 0.9",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("diff output missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	if err := run([]string{"snap", "diff", old, old}, &out); err != nil {
		t.Fatalf("self diff: %v", err)
	}
	if !strings.Contains(out.String(), "identical rule sets") {
		t.Fatalf("self diff output:\n%s", out.String())
	}
}

func TestSnapUsage(t *testing.T) {
	for _, args := range [][]string{
		{"snap"},
		{"snap", "bogus"},
		{"snap", "info"},
		{"snap", "diff", "only-one.nsnap"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

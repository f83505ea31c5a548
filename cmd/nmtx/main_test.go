package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/cli"
)

func fixture(t *testing.T) string {
	t.Helper()
	db := negmine.FromItemsets(
		[]negmine.Item{1, 2, 3},
		[]negmine.Item{2, 4},
		[]negmine.Item{1},
	)
	path := filepath.Join(t.TempDir(), "f.nmtx")
	if err := negmine.SaveDB(path, db); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsDefault(t *testing.T) {
	path := fixture(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"transactions: 3", "avg length:   2.00", "max item id:  4", "length histogram"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats missing %q:\n%s", want, s)
		}
	}
}

func TestHead(t *testing.T) {
	path := fixture(t)
	var out bytes.Buffer
	if err := run([]string{"-head", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[0] != "1: 1 2 3" || lines[1] != "2: 2 4" {
		t.Errorf("head output:\n%s", out.String())
	}
}

func TestConvertAndPackRoundTrip(t *testing.T) {
	path := fixture(t)
	dir := t.TempDir()
	txt := filepath.Join(dir, "out.txt")
	var out bytes.Buffer
	if err := run([]string{"-convert", txt, path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "1 2 3\n2 4\n1\n" {
		t.Errorf("converted text = %q", raw)
	}
	// Pack text back to gzipped binary and compare stats.
	gz := filepath.Join(dir, "out.nmtx.gz")
	out.Reset()
	if err := run([]string{"-pack", gz, txt}, &out); err != nil {
		t.Fatal(err)
	}
	db, err := negmine.OpenDB(gz)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count() != 3 {
		t.Errorf("packed count = %d", db.Count())
	}
}

// TestUsageMentionsPipeline pins that -h points at the negmine/negmined
// consumers of packed .nmtx files.
func TestUsageMentionsPipeline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-h"}, &out)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if code := cli.ExitCode(err); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	for _, want := range []string{"negmine -data", "negmined"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, out.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no input accepted")
	}
	if err := run([]string{"a", "b"}, &out); err == nil {
		t.Error("two inputs accepted")
	}
	if err := run([]string{"/does/not/exist.nmtx"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

// logFixture writes a small integer-basket text file the -log append path
// can consume.
func logFixture(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLogAppendSealInfo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	data := fixture(t) // 3 transactions, binary

	var out bytes.Buffer
	if err := run([]string{"-log", dir, "-append", data}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "appended 3 transactions (TIDs 1..3)") {
		t.Errorf("append output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-log", dir, "-seal"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sealed active segment") {
		t.Errorf("seal output:\n%s", out.String())
	}

	// A bare -log DIR (no action) prints the summary; each run call is a
	// fresh Open, so this also proves the appends survived a close.
	out.Reset()
	if err := run([]string{"-log", dir}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"sealed segments: 1 (3 transactions",
		"active segment:  0 transactions",
		"next TID:        4",
		"TIDs 1..3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("info missing %q:\n%s", want, s)
		}
	}
}

func TestLogAppendText(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	txt := logFixture(t, "1 2\n3\n")
	var out bytes.Buffer
	if err := run([]string{"-log", dir, "-append", txt, "-seal", "-info"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"appended 2 transactions (TIDs 1..2)", "sealed active segment", "next TID:        3"} {
		if !strings.Contains(s, want) {
			t.Errorf("combined run missing %q:\n%s", want, s)
		}
	}
}

func TestLogCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	txt := logFixture(t, "1 2\n2 3\n")
	var out bytes.Buffer
	// Two sealed segments, both far below the compaction threshold.
	for i := 0; i < 2; i++ {
		if err := run([]string{"-log", dir, "-append", txt, "-seal"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := run([]string{"-log", dir, "-compact"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "compacted a run of small segments") {
		t.Errorf("compact output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-log", dir, "-compact", "-info"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "nothing to compact") {
		t.Errorf("second compact output:\n%s", s)
	}
	for _, want := range []string{"sealed segments: 1 (4 transactions", "TIDs 1..4"} {
		if !strings.Contains(s, want) {
			t.Errorf("post-compact info missing %q:\n%s", want, s)
		}
	}
}

func TestLogEmptyAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	txt := logFixture(t, "")
	var out bytes.Buffer
	if err := run([]string{"-log", dir, "-append", txt}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no transactions to append") {
		t.Errorf("empty append output:\n%s", out.String())
	}
}

func TestLogFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seal"}, &out); err == nil || !strings.Contains(err.Error(), "require -log") {
		t.Errorf("-seal without -log: %v", err)
	}
	if err := run([]string{"-info"}, &out); err == nil || !strings.Contains(err.Error(), "require -log") {
		t.Errorf("-info without -log: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "log")
	if err := run([]string{"-log", dir, "extra.nmtx"}, &out); err == nil || !strings.Contains(err.Error(), "no positional arguments") {
		t.Errorf("-log with positional arg: %v", err)
	}
	if err := run([]string{"-log", dir, "-append", "/does/not/exist.txt"}, &out); err == nil {
		t.Error("-append of a missing file accepted")
	}
}

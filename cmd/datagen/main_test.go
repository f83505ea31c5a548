package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
	"negmine/internal/txdb"
)

func TestRunBinaryOutput(t *testing.T) {
	dir := t.TempDir()
	taxOut := filepath.Join(dir, "t.txt")
	// Both binary suffixes write the binary format; .gz gzips it.
	for _, dataOut := range []string{filepath.Join(dir, "d.nmtx"), filepath.Join(dir, "d.nmtx.gz")} {
		var out bytes.Buffer
		err := run([]string{
			"-preset", "short", "-scale", "100", "-seed", "5",
			"-items", "200", "-clusters", "20", "-roots", "5",
			"-out", dataOut, "-taxout", taxOut,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "wrote 500 transactions") {
			t.Errorf("unexpected output: %s", out.String())
		}
		db, err := txdb.OpenFile(dataOut)
		if err != nil {
			t.Fatalf("%s: %v", dataOut, err)
		}
		if db.Count() != 500 {
			t.Errorf("%s: binary db count = %d", dataOut, db.Count())
		}
	}
	f, err := os.Open(taxOut)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := negmine.ParseTaxonomy(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tax.Leaves().Len() != 200 {
		t.Errorf("taxonomy leaves = %d", tax.Leaves().Len())
	}
}

func TestRunTextOutput(t *testing.T) {
	dir := t.TempDir()
	dataOut := filepath.Join(dir, "d.txt")
	taxOut := filepath.Join(dir, "t.txt")
	var out bytes.Buffer
	err := run([]string{
		"-preset", "tall", "-txs", "50", "-items", "100", "-clusters", "10", "-roots", "4",
		"-out", dataOut, "-taxout", taxOut,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dataOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(raw), "\n")
	if lines != 50 {
		t.Errorf("text output has %d lines, want 50", lines)
	}
	if !strings.Contains(string(raw), "item") {
		t.Error("text output does not contain item names")
	}
	// Round trip: the taxonomy dictionary must resolve every basket item.
	f, _ := os.Open(taxOut)
	tax, err := negmine.ParseTaxonomy(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range strings.Fields(string(raw)) {
		if _, ok := tax.Dictionary().Lookup(tok); !ok {
			t.Fatalf("basket item %q not in taxonomy", tok)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "bogus"}, &out); err == nil {
		t.Error("bogus preset accepted")
	}
	if err := run([]string{"-preset", "short", "-items", "1"}, &out); err == nil {
		t.Error("invalid parameter accepted")
	}
	if err := run([]string{"-out", "/nonexistent-dir/x.nmtx", "-txs", "10", "-items", "60", "-clusters", "5", "-roots", "3"}, &out); err == nil {
		t.Error("unwritable output accepted")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"negmine/internal/serve"
)

// TestSnapFlagWritesServableSnapshot: -snap must emit a .nsnap file that the
// serving layer loads via mmap with the same rules the run printed.
func TestSnapFlagWritesServableSnapshot(t *testing.T) {
	data, tax := writeFixtures(t)
	snapPath := filepath.Join(t.TempDir(), "rules.nsnap")
	var out bytes.Buffer
	err := run([]string{
		"-data", data, "-tax", tax,
		"-minsup", "0.15", "-minri", "0.3",
		"-snap", snapPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote snapshot "+snapPath) {
		t.Fatalf("missing snapshot confirmation:\n%s", out.String())
	}

	snap, err := serve.OpenSnapshotFile(snapPath, 0)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	if snap.Generation() != 1 || snap.SourceKind() != "mmap" {
		t.Fatalf("provenance = gen %d kind %q", snap.Generation(), snap.SourceKind())
	}
	if snap.Len() == 0 {
		t.Fatal("snapshot holds no rules")
	}
	// The headline fixture rule must be servable from the file.
	ids := snap.QueryItem(nil, "pepsi", 0, 0)
	found := false
	for _, id := range ids {
		e := snap.Entry(id)
		if len(e.Antecedent) == 1 && e.Antecedent[0] == "pepsi" &&
			len(e.Consequent) == 1 && e.Consequent[0] == "chips" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pepsi =/=> chips not served from the snapshot (got %d rules)", len(ids))
	}
	info := snap.Info()
	if info.MinSupport != 0.15 || info.MinRI != 0.3 || !strings.Contains(info.Source, "mined ") {
		t.Fatalf("snapshot meta = %+v", info)
	}
}

// TestSnapFlagKeepsJSONStdoutClean: with -format json streaming to stdout,
// the -snap confirmation must not corrupt the report document.
func TestSnapFlagKeepsJSONStdoutClean(t *testing.T) {
	data, tax := writeFixtures(t)
	snapPath := filepath.Join(t.TempDir(), "rules.nsnap")
	var out bytes.Buffer
	err := run([]string{
		"-data", data, "-tax", tax,
		"-minsup", "0.15", "-minri", "0.3",
		"-format", "json", "-snap", snapPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not clean JSON after -snap: %v\n%s", err, out.String())
	}
	if _, err := serve.OpenSnapshotFile(snapPath, 0); err != nil {
		t.Fatalf("snapshot alongside JSON report: %v", err)
	}
}

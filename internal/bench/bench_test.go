package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"negmine/internal/datagen"
)

func TestScaleTx(t *testing.T) {
	p := datagen.Short()
	s := ScaleTx(p, 10)
	if s.NumTransactions != 5000 {
		t.Errorf("transactions = %d", s.NumTransactions)
	}
	if s.NumItems != p.NumItems || s.NumClusters != p.NumClusters {
		t.Error("ScaleTx must not touch the item universe")
	}
	if got := ScaleTx(p, 1); got != p {
		t.Error("factor 1 should be identity")
	}
	if got := ScaleTx(p, 10_000_000); got.NumTransactions < 100 {
		t.Error("transaction floor not applied")
	}
}

func TestPaperExampleReport(t *testing.T) {
	rep, err := RunPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 supports.
	want := map[string]int{
		"{bryers}":                    200,
		"{healthychoice}":             100,
		"{evian}":                     120,
		"{perrier}":                   80,
		"{frozenyogurt}":              300,
		"{bottledwater}":              200,
		"{bottledwater frozenyogurt}": 142,
	}
	for _, cs := range rep.Supports {
		key := cs.Set.Format(rep.Tax.Name)
		if w, ok := want[key]; ok && cs.Count != w {
			t.Errorf("support %s = %d, want %d", key, cs.Count, w)
		}
	}
	// The headline rule.
	found := false
	for _, r := range rep.Result.Rules {
		if strings.Contains(r.Format(rep.Tax.Name), "{perrier} =/=> {bryers}") {
			found = true
		}
	}
	if !found {
		t.Error("worked example missing rule perrier =/=> bryers")
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, s := range []string{"Table 1", "Table 2", "perrier", "=/=>"} {
		if !strings.Contains(out, s) {
			t.Errorf("report output missing %q:\n%s", s, out)
		}
	}
}

// smallDataset returns a quick dataset for harness smoke tests.
func smallDataset(t *testing.T, name string, fanout float64, roots int) *Dataset {
	t.Helper()
	p := datagen.Params{
		NumTransactions:       800,
		AvgTxLen:              8,
		AvgClusterSize:        4,
		AvgItemsetSize:        4,
		AvgItemsetsPerCluster: 3,
		NumClusters:           120,
		NumItems:              500,
		Roots:                 roots,
		Fanout:                fanout,
		CorruptionMean:        0.5,
		CorruptionStdDev:      0.3,
		Seed:                  21,
	}
	ds, err := NewDataset(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunTimingsShape(t *testing.T) {
	ds := smallDataset(t, "short-ish", 9, 12)
	rows, err := RunTimings(ds, TimingConfig{
		MinSupsPct: []float64{4, 2},
		MinRI:      0.5,
		MaxK:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower support ⇒ at least as many large itemsets.
	if rows[1].LargeItemsets < rows[0].LargeItemsets {
		t.Errorf("large itemsets decreased at lower support: %d -> %d",
			rows[0].LargeItemsets, rows[1].LargeItemsets)
	}
	var buf bytes.Buffer
	PrintTimings(&buf, ds, rows)
	if !strings.Contains(buf.String(), "naive(s)") {
		t.Errorf("timings table malformed:\n%s", buf.String())
	}
}

func TestRunCandidatesFanoutShape(t *testing.T) {
	// Figure 7's claim: higher fanout ⇒ more candidates per large itemset.
	shortish := smallDataset(t, "short-ish", 9, 12)
	tallish := smallDataset(t, "tall-ish", 3, 12)
	cs, err := RunCandidates(shortish, 3, 0.5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := RunCandidates(tallish, 3, 0.5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Normalized[2] == 0 || ct.Normalized[2] == 0 {
		t.Fatalf("no size-2 candidates: short=%v tall=%v", cs.Normalized, ct.Normalized)
	}
	if cs.Normalized[2] <= ct.Normalized[2] {
		t.Errorf("fanout 9 normalized candidates (%.2f) not above fanout 3 (%.2f)",
			cs.Normalized[2], ct.Normalized[2])
	}
	var buf bytes.Buffer
	PrintCandidates(&buf, []*CandidateCounts{cs, ct})
	if !strings.Contains(buf.String(), "size") {
		t.Errorf("candidates table malformed:\n%s", buf.String())
	}
}

func TestOnDiskAndThrottled(t *testing.T) {
	ds := smallDataset(t, "mini", 5, 8)
	disk, err := ds.OnDisk(t.TempDir() + "/mini.nmtx")
	if err != nil {
		t.Fatal(err)
	}
	if disk.DB.Count() != ds.DB.Count() {
		t.Errorf("disk count %d, want %d", disk.DB.Count(), ds.DB.Count())
	}
	if !strings.Contains(disk.Name, "/disk") {
		t.Errorf("disk name = %q", disk.Name)
	}
	th := ds.Throttled(time.Microsecond)
	if th.DB.Count() != ds.DB.Count() || !strings.Contains(th.Name, "slowio") {
		t.Errorf("throttled dataset wrong: %q", th.Name)
	}
	// Both variants mine identically to the in-memory dataset.
	base, err := RunCandidates(ds, 4, 0.5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := RunCandidates(disk, 4, 0.5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.BySize[2] != onDisk.BySize[2] {
		t.Errorf("disk-backed run differs: %v vs %v", onDisk.BySize, base.BySize)
	}
}

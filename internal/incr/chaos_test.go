package incr

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"negmine/internal/count"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
)

// TestChaosMergeFaultThenRetry arms the merge failpoint: the refresh fails
// after the index has been extended, and a retry (the daemon's next trigger)
// completes with a result identical to an undisturbed batch mine — the index
// built before the failure is reused, never corrupted.
func TestChaosMergeFaultThenRetry(t *testing.T) {
	tax, baskets := testData(t, 300, 9)
	log, err := seglog.Open(t.TempDir(), seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fillLog(t, log, baskets, 100, 1)

	m := New(tax, miningOpts())
	off := fault.Enable(PointMerge, fault.Error("killed"))
	_, err = m.Refresh(log)
	off()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("refresh error = %v, want injected fault", err)
	}

	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.NewSegments != 0 {
		t.Fatalf("retry re-read %d segments the failed refresh already indexed", st.NewSegments)
	}
	want := batchMine(t, log, tax)
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatal("post-fault refresh differs from batch")
	}
}

// warmMiner returns a miner on four counting workers that has refreshed twice
// over a growing log — rows, gap lists and counts in place — the budget it
// reserves against, and the baskets not yet appended.
func warmMiner(t *testing.T, seed int64) (*Miner, *seglog.Log, *taxonomy.Taxonomy, negative.Options, []item.Itemset) {
	t.Helper()
	tax, baskets := testData(t, 700, seed)
	log := openLog(t)
	opt := miningOpts()
	opt.Gen.MaxK = 3
	opt.Count.Parallelism, opt.Gen.Count.Parallelism = 4, 4
	opt.Count.Mem = govern.NewBudget(0)
	opt.Gen.Count.Mem = opt.Count.Mem
	m := New(tax, opt)
	for _, chunk := range [][]item.Itemset{baskets[:300], baskets[300:400]} {
		fillLog(t, log, chunk, 100, 1)
		if _, err := m.Refresh(log); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.LastStats(); st.TailSets == 0 || st.CountBytes == 0 {
		t.Fatalf("fixture: the second refresh carried nothing: %+v", st)
	}
	return m, log, tax, opt, baskets[400:]
}

// TestFaultMidRefreshKeepsThePreviousCounts kills a warm refresh twice after
// it has extended the rows — at the merge failpoint, then in its second
// counting pass (the negative candidates), with the first's (level 3; level 2
// is read off the pair table and makes no pass) already recorded. Neither
// leaves a half-written set behind: the retry resumes every itemset from the
// counts of the last refresh that finished, over everything that arrived
// since, and equals the batch mine.
func TestFaultMidRefreshKeepsThePreviousCounts(t *testing.T) {
	m, log, tax, opt, rest := warmMiner(t, 11)
	before := m.LastStats()
	for i, arm := range []func() func(){
		func() func() { return fault.Enable(PointMerge, fault.Error("killed")) },
		func() func() { return fault.Enable(count.PointPass, fault.Error("killed"), fault.OnHit(2)) },
	} {
		fillLog(t, log, rest[100*i:100*i+100], 50, 1)
		off := arm()
		_, err := m.Refresh(log)
		off()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("fault %d: refresh error = %v, want the injected fault", i, err)
		}
		if got := m.LastStats(); got != before {
			t.Fatalf("fault %d: a failed refresh published stats %+v", i, got)
		}
		if m.idx.counts.N != before.N || m.idx.n != before.N+100*(i+1) {
			t.Fatalf("fault %d: rows cover %d transactions, counts %d; want %d and %d", i, m.idx.n, m.idx.counts.N, before.N+100*(i+1), before.N)
		}
	}
	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.NewSegments != 0 || st.OldSegmentScans != 0 || st.TailSets < 10*st.FullSets {
		t.Fatalf("retry did not resume from the rows and counts it had: %+v", st)
	}
	checkAgainstBatch(t, "retry after two faults", log, tax, opt, got)
	checkIndex(t, m)
	if in := opt.Count.Mem.InUse(); in != st.IndexBytes+st.CountBytes {
		t.Fatalf("%d bytes reserved for an index of %d and counts of %d", in, st.IndexBytes, st.CountBytes)
	}
}

// TestChaosChangedHistoryDropsRowsAndCounts changes what the sealed log is a
// prefix of, three ways — a compaction, another log under a recycled segment
// ID, a segment read that fails halfway: each drops rows, gap lists and counts
// together, the next refresh re-reads every segment and counts every itemset
// in full, and the one after is back to the tail.
func TestChaosChangedHistoryDropsRowsAndCounts(t *testing.T) {
	tax, baskets := testData(t, 700, 12)
	opt := miningOpts()
	opt.Gen.MaxK = 3
	opt.Count.Mem = govern.NewBudget(0)
	opt.Gen.Count.Mem = opt.Count.Mem
	dir := t.TempDir()
	a, err := seglog.Open(dir, seglog.Options{CompactUnder: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bdir := t.TempDir()
	b, err := seglog.Open(bdir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	fillLog(t, a, baskets[:300], 100, 1)
	fillLog(t, b, baskets[:100], 100, 1) // a's first segment, then others under a's IDs
	fillLog(t, b, baskets[400:600], 100, 1)

	m := New(tax, opt)
	rebuilt := func(where string, log *seglog.Log) {
		t.Helper()
		got, err := m.Refresh(log)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		st := m.LastStats()
		if st.NewSegments != st.Segments || st.TailSets != 0 || st.FullSets == 0 || st.RowsPromoted != st.LargeItems {
			t.Fatalf("%s: not a rebuild from nothing: %+v", where, st)
		}
		checkAgainstBatch(t, where, log, tax, opt, got)
		if got, err = m.Refresh(log); err != nil {
			t.Fatal(err)
		}
		if st = m.LastStats(); st.NewSegments != 0 || st.OldSegmentScans != 0 || st.FullSets != 0 || st.TailSets == 0 {
			t.Fatalf("%s: the refresh after the rebuild: %+v", where, st)
		}
		checkAgainstBatch(t, where+", again", log, tax, opt, got)
		checkIndex(t, m)
		if in := opt.Count.Mem.InUse(); in != st.IndexBytes+st.CountBytes {
			t.Fatalf("%s: %d bytes reserved for an index of %d and counts of %d", where, in, st.IndexBytes, st.CountBytes)
		}
	}
	rebuilt("first build", a)
	if did, err := a.Compact(); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	rebuilt("after a compaction", a)
	if st := m.LastStats(); st.Segments != 1 {
		t.Fatalf("compaction left %d segments", st.Segments)
	}
	rebuilt("after a recycled segment ID", b)

	// The newest segment loses its last byte for the length of one refresh.
	fillLog(t, b, baskets[600:], 100, 1)
	entries := b.SealedEntries()
	path := filepath.Join(bdir, fmt.Sprintf("seg-%08d.nmsl", entries[len(entries)-1].ID))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = m.Refresh(b)
	if err == nil || opt.Count.Mem.InUse() != 0 || m.idx.n != 0 || m.idx.counts.N != 0 {
		t.Fatalf("a failed segment read: err %v, %d bytes reserved, index over %d transactions, counts over %d", err, opt.Count.Mem.InUse(), m.idx.n, m.idx.counts.N)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rebuilt("after a failed read", b)
}

// TestFaultBudgetAdmitsRowsNotCounts: under a budget with room for rows and
// gap lists but not for the counts, every refresh counts from the rows, in
// full, and reserves exactly what it keeps; when the budget failpoint refuses
// the counts halfway through a mine that had room, the refresh after it
// counts in full once and carries again. (A budget that admits neither is
// TestIndexOverBudgetFallsBackToScanning.)
func TestFaultBudgetAdmitsRowsNotCounts(t *testing.T) {
	m, log, tax, opt, rest := warmMiner(t, 13)
	roomy := m.LastStats()

	// The failpoint fires on the third reservation of the refresh: the
	// segment's rows and gaps, view's settle, then the first pass's counts.
	fillLog(t, log, rest[:100], 100, 0)
	off := fault.Enable(govern.PointBudget, fault.Error("no room"), fault.OnHit(3))
	got, err := m.Refresh(log)
	off()
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.TailSets == 0 || st.CountBytes != 0 || st.IndexBytes != st.RowBytes+st.PairBytes+st.GapBytes || opt.Count.Mem.InUse() != st.IndexBytes {
		t.Fatalf("counts refused mid-mine: %+v, %d bytes reserved", st, opt.Count.Mem.InUse())
	}
	checkAgainstBatch(t, "counts refused mid-mine", log, tax, opt, got)
	for i, wantTail := range []bool{false, true} {
		fillLog(t, log, rest[100+50*i:150+50*i], 50, 0)
		if got, err = m.Refresh(log); err != nil {
			t.Fatal(err)
		}
		if st = m.LastStats(); (st.TailSets > 0) != wantTail || st.FullSets == 0 || st.CountBytes == 0 {
			t.Fatalf("refresh %d after the refusal: %+v", i+1, st)
		}
		checkAgainstBatch(t, "after the refusal", log, tax, opt, got)
	}

	tight := opt
	tight.Count.Mem = govern.NewBudget(st.IndexBytes + roomy.CountBytes/2)
	tight.Gen.Count.Mem = tight.Count.Mem
	m = New(tax, tight)
	for i := 0; i < 2; i++ {
		if got, err = m.Refresh(log); err != nil {
			t.Fatal(err)
		}
		st = m.LastStats()
		if st.LargeItems == 0 || st.TailSets != 0 || st.FullSets == 0 || st.CountBytes != 0 || st.OldSegmentScans != 0 ||
			st.IndexBytes != st.RowBytes+st.PairBytes+st.GapBytes || tight.Count.Mem.InUse() != st.IndexBytes || tight.Count.Mem.Denials() != int64(i+1) {
			t.Fatalf("refresh %d under a budget without room for counts: %+v, %d bytes reserved, %d denials", i+1, st, tight.Count.Mem.InUse(), tight.Count.Mem.Denials())
		}
		checkAgainstBatch(t, "no room for counts", log, tax, opt, got)
		checkIndex(t, m)
	}
}

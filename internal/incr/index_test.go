package incr

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
)

// driftData generates a non-stationary stream: zipfian leaf popularity whose
// rank→item assignment rotates every quarter of the stream, so late segments
// make items large that early segments never saw as such, and vice versa.
func driftData(t testing.TB, n int, seed int64) (*taxonomy.Taxonomy, []item.Itemset) {
	t.Helper()
	p := datagen.Scaled(datagen.Short(), 50)
	p.NumTransactions = n
	p.Seed = seed
	tax, db, err := datagen.GenerateDrift(p, datagen.DriftParams{Exponent: 1.1, Phases: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tax, basketsOf(db)
}

func openLog(t testing.TB) *seglog.Log {
	t.Helper()
	log, err := seglog.Open(t.TempDir(), seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestDriftingStreamReadsOnlyNewSegments is the acceptance check for the
// refresh cost model, with no premise about the data: seeded drifting streams
// are cut at random into 1–40 segments and refreshed after every one. Every
// refresh must equal a batch mine of the log so far, under both scanning
// backends, and every refresh after the first must read exactly the one new
// segment — never an old one.
func TestDriftingStreamReadsOnlyNewSegments(t *testing.T) {
	// MaxK keeps the first refreshes tractable: over a handful of
	// transactions the support floor is one transaction and every subset of
	// every basket is large.
	base := miningOpts()
	base.Gen.MaxK = 3
	rules := 0
	for seed := int64(1); seed <= 3; seed++ {
		tax, baskets := driftData(t, 480, seed)
		rng := rand.New(rand.NewSource(seed))
		cuts := append(rng.Perm(len(baskets) - 1)[:rng.Intn(40)], len(baskets)-1)
		sortInts(cuts)
		log := openLog(t)
		m := New(tax, base)
		lo := 0
		for i, cut := range cuts {
			fillLog(t, log, baskets[lo:cut+1], cut+1-lo, 0)
			lo = cut + 1
			got, err := m.Refresh(log)
			if err != nil {
				t.Fatal(err)
			}
			rules += len(got.Rules)
			st := m.LastStats()
			if st.NewSegments != 1 || st.OldSegmentScans != 0 || st.Segments != i+1 || st.N != lo {
				t.Fatalf("seed %d, refresh %d of %d: stats %+v", seed, i+1, len(cuts), st)
			}
			for _, backend := range []count.Backend{count.BackendBitmap, count.BackendHashTree} {
				opt := base
				opt.Count.Backend, opt.Gen.Count.Backend = backend, backend
				want := batchMineWith(t, log, tax, opt)
				if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
					t.Fatalf("seed %d, refresh %d of %d: report differs from the %v batch mine", seed, i+1, len(cuts), backend)
				}
			}
		}
	}
	if rules == 0 {
		t.Fatal("no refresh mined a rule — the equivalence check is vacuous")
	}
}

// TestRecycledSegmentIDForcesRebuild re-presents a segment under an ID the
// index has already covered but with different content — what a follower
// adopting a primary's segments, or a log rebuilt in place, can do. The CRC
// in the covered prefix catches it: one rebuild, exact result.
func TestRecycledSegmentIDForcesRebuild(t *testing.T) {
	tax, baskets := testData(t, 400, 5)
	a, b := openLog(t), openLog(t)
	fillLog(t, a, baskets[:300], 100, 1)
	fillLog(t, b, baskets[:100], 100, 1) // same first segment, byte for byte
	fillLog(t, b, baskets[200:400], 100, 1)
	ea, eb := a.SealedEntries(), b.SealedEntries()
	if ea[0] != eb[0] || ea[1].ID != eb[1].ID || ea[1].CRC == eb[1].CRC {
		t.Fatalf("fixture: want equal first entries and a recycled second ID, got %+v vs %+v", ea, eb)
	}

	m := New(tax, miningOpts())
	if _, err := m.Refresh(a); err != nil {
		t.Fatal(err)
	}
	got, err := m.Refresh(b)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.LastStats(); st.OldSegmentScans != 3 || st.NewSegments != 3 {
		t.Fatalf("recycled ID did not force a rebuild: %+v", st)
	}
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, batchMine(t, b, tax))) {
		t.Fatal("refresh after a recycled segment ID differs from batch")
	}
	if _, err := m.Refresh(b); err != nil {
		t.Fatal(err)
	}
	if st := m.LastStats(); st.OldSegmentScans != 0 || st.NewSegments != 0 {
		t.Fatalf("second refresh rebuilt again: %+v", st)
	}
}

// TestIndexOverBudgetFallsBackToScanning gives the miner a memory budget the
// index does not fit: the refresh must release it, mine the segments by
// scanning with an identical result, and leave nothing reserved.
func TestIndexOverBudgetFallsBackToScanning(t *testing.T) {
	tax, baskets := testData(t, 3000, 6)
	log := openLog(t)
	fillLog(t, log, baskets, 500, 1)

	opt := miningOpts()
	opt.Count.Mem = govern.NewBudget(0) // unlimited: measures what the index needs
	opt.Gen.Count.Mem = opt.Count.Mem
	m := New(tax, opt)
	want, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	need := m.LastStats().IndexBytes
	if need == 0 || opt.Count.Mem.InUse() != need {
		t.Fatalf("index holds %d bytes, ledger says %d in use", need, opt.Count.Mem.InUse())
	}

	opt.Count.Mem = govern.NewBudget(need - 1)
	opt.Gen.Count.Mem = opt.Count.Mem
	m = New(tax, opt)
	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatal("scanning fallback differs from the indexed refresh")
	}
	st := m.LastStats()
	if st.IndexBytes != 0 || st.LargeItems != 0 || st.OldSegmentScans < st.Segments {
		t.Fatalf("refresh did not fall back to scanning: %+v", st)
	}
	if opt.Count.Mem.InUse() != 0 || opt.Count.Mem.Denials() == 0 {
		t.Fatalf("after fallback: %d bytes reserved, %d denials", opt.Count.Mem.InUse(), opt.Count.Mem.Denials())
	}
}

// TestRefreshEmptyLog: a log with nothing sealed (seglog refuses an empty
// batch, so there is no such thing as an empty segment) mines to the empty
// result a batch mine of no transactions gives, refresh after refresh.
func TestRefreshEmptyLog(t *testing.T) {
	tax, _ := testData(t, 10, 7)
	log := openLog(t)
	m := New(tax, miningOpts())
	want := batchMine(t, log, tax)
	for i := 0; i < 2; i++ {
		got, err := m.Refresh(log)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rules) != 0 || !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
			t.Fatal("refresh of an empty log differs from the empty batch result")
		}
		if st := m.LastStats(); st.N != 0 || st.Segments != 0 || st.OldSegmentScans != 0 {
			t.Fatalf("stats %+v", st)
		}
	}
}

// TestRefreshStatsPartsSumToDuration checks the stage breakdown accounts for
// the refresh: index append, stage 1 and the four negative stages add up to
// the wall time within 5 %.
func TestRefreshStatsPartsSumToDuration(t *testing.T) {
	tax, baskets := testData(t, 2000, 8)
	log := openLog(t)
	fillLog(t, log, baskets, 500, 1)
	opt := miningOpts()
	opt.MinSupport, opt.Gen.MaxK = 0.08, 3
	m := New(tax, opt)
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	parts := st.IndexAppend + st.Stage1 + st.Restrict + st.CandGen + st.Count + st.RuleGen
	t.Logf("parts %v of %v: %+v", parts, st.Duration, st)
	if diff := (st.Duration - parts).Abs(); diff > st.Duration/20 {
		t.Fatalf("parts sum to %v, Duration is %v (stats %+v)", parts, st.Duration, st)
	}
	if st.IndexAppend <= 0 || st.Stage1 <= 0 || st.IndexBytes <= 0 || st.LargeItems <= 0 {
		t.Fatalf("unset stage fields: %+v", st)
	}
}

// TestLastStatsDoesNotWaitForRefresh holds a refresh at the merge failpoint
// for 300 ms: LastStats, which health probes call, must answer meanwhile.
func TestLastStatsDoesNotWaitForRefresh(t *testing.T) {
	tax, baskets := testData(t, 200, 9)
	log := openLog(t)
	fillLog(t, log, baskets, 100, 1)
	m := New(tax, miningOpts())
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	defer fault.Enable(PointMerge, fault.Sleep(300*time.Millisecond))()
	done := make(chan error, 1)
	go func() {
		_, err := m.Refresh(log)
		done <- err
	}()
	for fault.Hits(PointMerge) == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	st := m.LastStats()
	if took := time.Since(start); took > 20*time.Millisecond {
		t.Errorf("LastStats took %v during a refresh", took)
	}
	if st.N != 200 {
		t.Errorf("mid-refresh LastStats = %+v, want the previous refresh's", st)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

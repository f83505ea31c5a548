package incr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// testData generates a small synthetic taxonomy + basket stream.
func testData(t testing.TB, n int, seed int64) (*taxonomy.Taxonomy, []item.Itemset) {
	t.Helper()
	p := datagen.Scaled(datagen.Short(), 50)
	p.NumTransactions = n
	p.Seed = seed
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tax, basketsOf(db)
}

// basketsOf lists a generated database's itemsets in order.
func basketsOf(db *txdb.MemDB) []item.Itemset {
	var baskets []item.Itemset
	for _, tx := range db.Transactions() {
		baskets = append(baskets, tx.Items)
	}
	return baskets
}

// miningOpts is the configuration every equivalence test mines with, on
// both sides.
func miningOpts() negative.Options {
	return negative.Options{MinSupport: 0.15, MinRI: 0.3}
}

// batchMine runs the batch Improved pipeline over the same transactions the
// log holds.
func batchMine(t *testing.T, log *seglog.Log, tax *taxonomy.Taxonomy) *negative.Result {
	t.Helper()
	return batchMineWith(t, log, tax, miningOpts())
}

func batchMineWith(t *testing.T, log *seglog.Log, tax *taxonomy.Taxonomy, opt negative.Options) *negative.Result {
	t.Helper()
	var txs []txdb.Transaction
	if err := log.Scan(func(tx txdb.Transaction) error {
		txs = append(txs, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db, err := txdb.NewMemDB(txs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := negative.Mine(db, tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkAgainstBatch fails unless got — a refresh with opt over what log holds
// now — is what the batch miner finds in the same transactions, counting
// with whatever auto picks, with the bitmap engine and with the hash tree.
func checkAgainstBatch(t *testing.T, where string, log *seglog.Log, tax *taxonomy.Taxonomy, opt negative.Options, got *negative.Result) {
	t.Helper()
	for _, backend := range []count.Backend{count.BackendAuto, count.BackendBitmap, count.BackendHashTree} {
		opt.Count.Backend, opt.Gen.Count.Backend = backend, backend
		checkSameMine(t, fmt.Sprintf("%s, against the %v batch mine", where, backend), got, batchMineWith(t, log, tax, opt))
	}
}

// checkSameMine fails unless two mines found the same large itemsets,
// negative itemsets and rules, every count and expectation included, and
// render the same report bytes.
func checkSameMine(t *testing.T, where string, got, want *negative.Result) {
	t.Helper()
	for what, pair := range map[string][2]any{
		"large itemsets":     {got.Large.Levels, want.Large.Levels},
		"N, MinCount":        {[2]int{got.Large.N, got.Large.MinCount}, [2]int{want.Large.N, want.Large.MinCount}},
		"candidates by size": {got.CandidatesBySize, want.CandidatesBySize},
		"negative itemsets":  {got.Negatives, want.Negatives},
		"rules":              {got.Rules, want.Rules},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s differ:\ngot:  %v\nwant: %v", where, what, pair[0], pair[1])
		}
	}
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatalf("%s: reports differ", where)
	}
}

// reportBytes renders a result to the canonical JSON report.
func reportBytes(t *testing.T, res *negative.Result) []byte {
	t.Helper()
	opt := miningOpts()
	var buf bytes.Buffer
	name := func(x item.Item) string { return fmt.Sprintf("i%d", int(x)) }
	if err := report.WriteNegativeJSON(&buf, res, opt.MinSupport, opt.MinRI, name); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fillLog appends baskets in batches and seals every sealEvery batches.
func fillLog(t testing.TB, log *seglog.Log, baskets []item.Itemset, batch, sealEvery int) {
	t.Helper()
	if batch <= 0 {
		batch = 50
	}
	b := 0
	for lo := 0; lo < len(baskets); lo += batch {
		hi := lo + batch
		if hi > len(baskets) {
			hi = len(baskets)
		}
		if _, _, err := log.Append(baskets[lo:hi]); err != nil {
			t.Fatal(err)
		}
		b++
		if sealEvery > 0 && b%sealEvery == 0 {
			if err := log.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRefreshMatchesBatchMine is the core equivalence test: an incremental
// refresh over a segmented log must produce a byte-identical rule report to
// a batch mine of the same transactions.
func TestRefreshMatchesBatchMine(t *testing.T) {
	tax, baskets := testData(t, 600, 1)
	log, err := seglog.Open(t.TempDir(), seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fillLog(t, log, baskets, 60, 3)

	m := New(tax, miningOpts())
	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	want := batchMine(t, log, tax)
	gb, wb := reportBytes(t, got), reportBytes(t, want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("incremental report differs from batch:\nincr:  %s\nbatch: %s", gb, wb)
	}
	if len(want.Rules) == 0 {
		t.Fatal("test data produced no negative rules — the equivalence check is vacuous")
	}
	if st := m.LastStats(); st.NewSegments == 0 || st.N != 600 {
		t.Fatalf("refresh stats: %+v", st)
	}
}

// TestRefreshPropertyRandomSplits replays random base+delta splits of the
// same stream: whatever the segment boundaries and refresh schedule, on one
// counting worker or four, every refresh must match the batch mine of the
// data so far — and so must a second refresh with nothing new, which counts
// no itemset in full.
func TestRefreshPropertyRandomSplits(t *testing.T) {
	tax, baskets := testData(t, 400, 2)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		log, err := seglog.Open(t.TempDir(), seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := miningOpts()
		opt.Count.Parallelism = 1 + 3*(trial%2)
		opt.Gen.Count.Parallelism = opt.Count.Parallelism
		m := New(tax, opt)
		// Random split into 2–4 chunks with random batch/seal cadence.
		cuts := []int{0, len(baskets)}
		for c := rng.Intn(3); c > 0; c-- {
			cuts = append(cuts, 1+rng.Intn(len(baskets)-1))
		}
		sortInts(cuts)
		for i := 1; i < len(cuts); i++ {
			chunk := baskets[cuts[i-1]:cuts[i]]
			if len(chunk) == 0 {
				continue
			}
			fillLog(t, log, chunk, 60+rng.Intn(60), 2+rng.Intn(2))
			got, err := m.Refresh(log)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("trial %d, chunk %d", trial, i)
			checkAgainstBatch(t, where, log, tax, opt, got)
			again, err := m.Refresh(log)
			if err != nil {
				t.Fatal(err)
			}
			checkSameMine(t, where+", refreshed again", again, got)
			if st := m.LastStats(); st.NewSegments != 0 || st.FullSets != 0 || st.TailSets == 0 {
				t.Fatalf("%s: a refresh with nothing new: %+v", where, st)
			}
			checkIndex(t, m)
		}
		log.Close()
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestRefreshSurvivesCompaction compacts the log between refreshes: the
// sealed log no longer extends the prefix the index covers, which forces
// exactly one rebuild, and the result stays exact.
func TestRefreshSurvivesCompaction(t *testing.T) {
	tax, baskets := testData(t, 400, 4)
	log, err := seglog.Open(t.TempDir(), seglog.Options{CompactUnder: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fillLog(t, log, baskets, 100, 1)

	m := New(tax, miningOpts())
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	if did, err := log.Compact(); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	want := batchMine(t, log, tax)
	gb, wb := reportBytes(t, got), reportBytes(t, want)
	if !bytes.Equal(gb, wb) {
		t.Fatal("post-compaction refresh report differs from batch")
	}
	if st := m.LastStats(); st.OldSegmentScans != st.Segments || st.NewSegments != st.Segments {
		t.Fatalf("post-compaction refresh did not rebuild over the whole log: %+v", st)
	}
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	if st := m.LastStats(); st.OldSegmentScans != 0 || st.NewSegments != 0 {
		t.Fatalf("refresh after the rebuild read segments again: %+v", st)
	}
}

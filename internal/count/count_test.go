package count

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"negmine/internal/item"
	"negmine/internal/txdb"
)

func randomDB(seed int64, nTx, universe, maxLen int) *txdb.MemDB {
	r := rand.New(rand.NewSource(seed))
	db := &txdb.MemDB{}
	for i := 0; i < nTx; i++ {
		n := 1 + r.Intn(maxLen)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = item.Item(r.Intn(universe))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return db
}

func TestCandidatesMatchesDirect(t *testing.T) {
	db := randomDB(1, 200, 20, 8)
	cands := []item.Itemset{item.New(1, 2), item.New(3, 4), item.New(0, 19)}
	got, err := Candidates(db, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(cands))
	db.Scan(func(tx txdb.Transaction) error {
		for i, c := range cands {
			if c.SubsetOf(tx.Items) {
				want[i]++
			}
		}
		return nil
	})
	for i := range cands {
		if got[i] != want[i] {
			t.Errorf("candidate %v: got %d, want %d", cands[i], got[i], want[i])
		}
	}
	// Empty candidate list.
	if out, err := Candidates(db, nil, Options{}); err != nil || out != nil {
		t.Errorf("empty candidates: %v, %v", out, err)
	}
}

func TestMultiMixedSizes(t *testing.T) {
	db := randomDB(2, 300, 15, 7)
	groups := [][]item.Itemset{
		{item.New(1), item.New(2)},
		{item.New(1, 2), item.New(3, 4)},
		{item.New(1, 2, 3)},
	}
	got, err := Multi(db, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for g, cands := range groups {
		for i, c := range cands {
			want := 0
			db.Scan(func(tx txdb.Transaction) error {
				if c.SubsetOf(tx.Items) {
					want++
				}
				return nil
			})
			if got[g][i] != want {
				t.Errorf("group %d cand %v: got %d, want %d", g, c, got[g][i], want)
			}
		}
	}
}

func TestMultiParallelMatchesSequential(t *testing.T) {
	db := randomDB(3, 500, 30, 10)
	groups := [][]item.Itemset{
		{item.New(1), item.New(5), item.New(29)},
		{item.New(2, 3), item.New(4, 9), item.New(10, 11)},
	}
	seq, err := Multi(db, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Multi(db, groups, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := range groups {
		for i := range groups[g] {
			if seq[g][i] != par[g][i] {
				t.Errorf("group %d cand %d: seq %d, par %d", g, i, seq[g][i], par[g][i])
			}
		}
	}
}

func TestSingletonsParallel(t *testing.T) {
	db := randomDB(4, 400, 25, 6)
	seq, err := Singletons(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Singletons(db, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seq, par) {
		t.Fatalf("seq %v, par %v", seq, par)
	}
}

// tooMany promises more transactions than pass 1's 32-bit cells count.
type tooMany struct{ *txdb.MemDB }

func (tooMany) Count() int { return math.MaxInt32 + 1 }

// TestSingletonsRefusesWhatItCannotCount: a database promising more
// transactions than a cell's stamp and count hold is an error before any
// scan, not a count that wraps.
func TestSingletonsRefusesWhatItCannotCount(t *testing.T) {
	ins := txdb.Instrument(tooMany{randomDB(4, 10, 5, 3)})
	if got, err := Singletons(ins, Options{Parallelism: 2}); err == nil || ins.Passes()+ins.ShardScans() != 0 {
		t.Fatalf("Singletons = (%v, %v) after %d scans, want an error and none", got, err, ins.Passes()+ins.ShardScans())
	}
}

func TestTransformApplied(t *testing.T) {
	db := txdb.FromItemsets([]item.Item{10}, []item.Item{20})
	shift := func(dst []item.Item, s item.Itemset) item.Itemset {
		for _, x := range s {
			dst = append(dst, x+1)
		}
		return dst
	}
	got, err := Candidates(db, []item.Itemset{item.New(11)}, Options{TransformInto: shift})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("transformed count = %d, want 1", got[0])
	}
	c, err := Singletons(db, Options{TransformInto: shift})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 22 || c[11] != 1 || c[10] != 0 {
		t.Error("Singletons ignored transform")
	}
}

func TestSample(t *testing.T) {
	db := randomDB(5, 1000, 50, 5)
	s, err := Sample(db, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 100 {
		t.Errorf("sample size = %d", s.Count())
	}
	// Sample of a small db returns everything.
	small := randomDB(6, 10, 5, 3)
	s2, err := Sample(small, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 10 {
		t.Errorf("small sample size = %d", s2.Count())
	}
	// Deterministic under the same seed.
	a, _ := Sample(db, 50, 9)
	b, _ := Sample(db, 50, 9)
	for i := range a.Transactions() {
		if a.Transactions()[i].TID != b.Transactions()[i].TID {
			t.Fatal("sampling not deterministic")
		}
	}
	if _, err := Sample(db, 0, 1); err == nil {
		t.Error("zero sample size accepted")
	}
}

func TestSampleUniformity(t *testing.T) {
	// Each transaction should appear with roughly equal frequency across
	// many sampled reservoirs.
	db := randomDB(8, 40, 10, 3)
	hits := make(map[int64]int)
	const trials = 400
	for s := int64(0); s < trials; s++ {
		smp, err := Sample(db, 10, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range smp.Transactions() {
			hits[tx.TID]++
		}
	}
	// Expected hits per TID = trials * 10/40 = 100.
	for tid, h := range hits {
		if h < 50 || h > 160 {
			t.Errorf("tid %d sampled %d times, expected ≈100", tid, h)
		}
	}
	if len(hits) != 40 {
		t.Errorf("only %d of 40 tids ever sampled", len(hits))
	}
}

// TestSampleDeterministicItems strengthens the fixed-seed guarantee beyond
// TIDs: two samples under the same seed are transaction-for-transaction
// identical, itemsets included, and a different seed yields a different
// reservoir.
func TestSampleDeterministicItems(t *testing.T) {
	db := randomDB(11, 500, 30, 6)
	a, err := Sample(db, 40, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(db, 40, 123)
	if err != nil {
		t.Fatal(err)
	}
	for i, tx := range a.Transactions() {
		other := b.Transactions()[i]
		if tx.TID != other.TID || !tx.Items.Equal(other.Items) {
			t.Fatalf("sample diverged at %d: %v vs %v", i, tx, other)
		}
	}
	c, err := Sample(db, 40, 124)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, tx := range a.Transactions() {
		if tx.TID != c.Transactions()[i].TID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical reservoirs")
	}
}

// TestSampleChiSquare bounds the deviation of per-transaction inclusion
// frequencies from uniform with a chi-square statistic over many seeds.
// Reservoir sampling without replacement has negatively correlated cells,
// which deflates the statistic below the df≈N−1 of the independent case, so
// the generous 2·df bound makes this a solid smoke test with zero flake
// risk (seeds are fixed).
func TestSampleChiSquare(t *testing.T) {
	const (
		nTx    = 50
		sample = 10
		trials = 600
	)
	db := randomDB(12, nTx, 10, 3)
	hits := make(map[int64]float64)
	for s := int64(0); s < trials; s++ {
		smp, err := Sample(db, sample, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range smp.Transactions() {
			hits[tx.TID]++
		}
	}
	expected := float64(trials) * float64(sample) / float64(nTx)
	chi2 := 0.0
	for tid := int64(1); tid <= nTx; tid++ {
		d := hits[tid] - expected
		chi2 += d * d / expected
	}
	if df := float64(nTx - 1); chi2 > 2*df {
		t.Fatalf("chi-square = %.1f over df = %.0f; sampling looks non-uniform", chi2, df)
	}
}

// TestSampleIndependentOfSource pins the itemset-cloning guarantee: the
// reservoir must not alias the source database's buffers, so mutating the
// source after sampling cannot change the sample.
func TestSampleIndependentOfSource(t *testing.T) {
	db := txdb.FromItemsets(
		[]item.Item{1, 2, 3},
		[]item.Item{4, 5},
		[]item.Item{6, 7, 8},
	)
	smp, err := Sample(db, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]item.Itemset, smp.Count())
	for i, tx := range smp.Transactions() {
		want[i] = tx.Items.Clone()
	}
	// Clobber every itemset of the source in place.
	for _, tx := range db.Transactions() {
		for j := range tx.Items {
			tx.Items[j] = 999
		}
	}
	for i, tx := range smp.Transactions() {
		if !tx.Items.Equal(want[i]) {
			t.Fatalf("sample %d changed after source mutation: %v, want %v", i, tx.Items, want[i])
		}
	}
}

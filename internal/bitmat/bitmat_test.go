package bitmat

import (
	"math/rand"
	"testing"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// randomDB builds a MemDB of n transactions over items [0, nItems), each
// item present independently with probability p.
func randomDB(t *testing.T, rng *rand.Rand, n, nItems int, p float64) *txdb.MemDB {
	t.Helper()
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		var s []item.Item
		for x := 0; x < nItems; x++ {
			if rng.Float64() < p {
				s = append(s, item.Item(x))
			}
		}
		txs[i] = txdb.Transaction{TID: int64(i + 1), Items: item.New(s...)}
	}
	db, err := txdb.NewMemDB(txs)
	if err != nil {
		t.Fatalf("NewMemDB: %v", err)
	}
	return db
}

// bruteSupport counts transactions of db whose (transformed) itemset
// contains every item of c.
func bruteSupport(t *testing.T, db txdb.DB, c item.Itemset, transform func(item.Itemset) item.Itemset) int {
	t.Helper()
	n := 0
	err := db.Scan(func(tx txdb.Transaction) error {
		s := tx.Items
		if transform != nil {
			s = transform(s)
		}
		if c.SubsetOf(s) {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return n
}

// randomCandidates draws sets of size 1..4 over the given universe.
func randomCandidates(rng *rand.Rand, universe item.Itemset, n int) []item.Itemset {
	cands := make([]item.Itemset, n)
	for i := range cands {
		k := 1 + rng.Intn(4)
		var s []item.Item
		for j := 0; j < k; j++ {
			s = append(s, universe[rng.Intn(len(universe))])
		}
		cands[i] = item.New(s...)
	}
	return cands
}

func TestSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		nItems := 12 + rng.Intn(8)
		db := randomDB(t, rng, 80+rng.Intn(120), nItems, 0.25)
		universe := make(item.Itemset, nItems)
		for i := range universe {
			universe[i] = item.Item(i)
		}
		m, err := fromDB(db, nil, universe, nil)
		if err != nil {
			t.Fatalf("fromDB: %v", err)
		}
		if m.N() != db.Count() {
			t.Fatalf("N = %d, want %d", m.N(), db.Count())
		}
		scratch := make([]uint64, m.Words())
		for _, c := range randomCandidates(rng, universe, 60) {
			got, err := m.Support(c, scratch)
			if err != nil {
				t.Fatalf("Support(%v): %v", c, err)
			}
			if want := bruteSupport(t, db, c, nil); got != want {
				t.Fatalf("Support(%v) = %d, want %d", c, got, want)
			}
		}
		// Empty candidate: every transaction supports it.
		if got, _ := m.Support(nil, nil); got != db.Count() {
			t.Fatalf("Support(∅) = %d, want %d", got, db.Count())
		}
	}
}

func TestFromDBAppliesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDB(t, rng, 100, 10, 0.3)
	// Shift transform: every transaction gains item x+10 for each item x.
	shift := func(s item.Itemset) item.Itemset {
		out := s.Clone()
		for _, x := range s {
			out = out.With(x + 10)
		}
		return out
	}
	shiftInto := func(dst []item.Item, s item.Itemset) item.Itemset {
		for _, x := range s {
			dst = append(dst, x, x+10)
		}
		return item.SortDedup(dst)
	}
	universe := make(item.Itemset, 20)
	for i := range universe {
		universe[i] = item.Item(i)
	}
	m, err := fromDB(db, nil, universe, shiftInto)
	if err != nil {
		t.Fatalf("fromDB: %v", err)
	}
	for _, c := range randomCandidates(rng, universe, 50) {
		got, err := m.Support(c, nil)
		if err != nil {
			t.Fatalf("Support(%v): %v", c, err)
		}
		if want := bruteSupport(t, db, c, shift); got != want {
			t.Fatalf("Support(%v) = %d, want %d", c, got, want)
		}
	}
}

// buildTax returns a two-level taxonomy: categories c0..c3, each with 4
// leaf children, leaves are ids of the category's children.
func buildTax(t *testing.T) (*taxonomy.Taxonomy, item.Itemset) {
	t.Helper()
	b := taxonomy.NewBuilder()
	var leaves item.Itemset
	for c := 0; c < 4; c++ {
		cat := string(rune('A' + c))
		for l := 0; l < 4; l++ {
			_, leaf := b.Link(cat, cat+string(rune('0'+l)))
			leaves = append(leaves, leaf)
		}
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tax, item.New(leaves...)
}

func TestFromDBTaxonomyMatchesExtendOracle(t *testing.T) {
	tax, leaves := buildTax(t)
	rng := rand.New(rand.NewSource(3))
	txs := make([]txdb.Transaction, 150)
	for i := range txs {
		var s []item.Item
		for _, l := range leaves {
			if rng.Float64() < 0.2 {
				s = append(s, l)
			}
		}
		txs[i] = txdb.Transaction{TID: int64(i + 1), Items: item.New(s...)}
	}
	db, err := txdb.NewMemDB(txs)
	if err != nil {
		t.Fatalf("NewMemDB: %v", err)
	}
	// Rows for every node: leaves and categories.
	all := leaves.Union(tax.Categories())
	m, err := FromDBTaxonomy(db, tax, all)
	if err != nil {
		t.Fatalf("FromDBTaxonomy: %v", err)
	}
	for _, c := range randomCandidates(rng, all, 80) {
		got, err := m.Support(c, nil)
		if err != nil {
			t.Fatalf("Support(%v): %v", c, err)
		}
		if want := bruteSupport(t, db, c, tax.Extend); got != want {
			t.Fatalf("Support(%v) = %d, want %d", c, got, want)
		}
	}
}

// TestCategoryRowIsOrOfChildren checks the closure property the package doc
// promises: when every child has a row, a category's row equals the OR of
// its children's rows.
func TestCategoryRowIsOrOfChildren(t *testing.T) {
	tax, leaves := buildTax(t)
	rng := rand.New(rand.NewSource(4))
	txs := make([]txdb.Transaction, 99) // odd count: exercises a ragged last word
	for i := range txs {
		var s []item.Item
		for _, l := range leaves {
			if rng.Float64() < 0.3 {
				s = append(s, l)
			}
		}
		txs[i] = txdb.Transaction{TID: int64(i + 1), Items: item.New(s...)}
	}
	db, err := txdb.NewMemDB(txs)
	if err != nil {
		t.Fatalf("NewMemDB: %v", err)
	}
	all := leaves.Union(tax.Categories())
	m, err := FromDBTaxonomy(db, tax, all)
	if err != nil {
		t.Fatalf("FromDBTaxonomy: %v", err)
	}
	for _, cat := range tax.Categories() {
		want := make([]uint64, m.Words())
		for _, ch := range tax.Children(cat) {
			OrInto(want, m.Row(ch))
		}
		got := m.Row(cat)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("category %v row word %d = %x, want OR of children %x", cat, i, got[i], want[i])
			}
		}
	}
}

// TestInfrequentLeafStillCountsForCategory pins the design decision to set
// ancestor bits from raw items rather than OR-composing materialized child
// rows: a leaf with no row of its own must still contribute to its
// category's support.
func TestInfrequentLeafStillCountsForCategory(t *testing.T) {
	tax, leaves := buildTax(t)
	rare := leaves[0]
	db := txdb.FromItemsets(
		[]item.Item{rare},
		[]item.Item{leaves[5]},
	)
	cats := tax.Categories()
	// Only categories get rows; no leaf rows at all.
	m, err := FromDBTaxonomy(db, tax, cats)
	if err != nil {
		t.Fatalf("FromDBTaxonomy: %v", err)
	}
	rareCat := tax.Parent(rare)
	got, err := m.Support(item.New(rareCat), nil)
	if err != nil {
		t.Fatalf("Support: %v", err)
	}
	if got != 1 {
		t.Fatalf("category of row-less leaf has support %d, want 1", got)
	}
}

func TestCountsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(t, rng, 200, 20, 0.25)
	universe := make(item.Itemset, 20)
	for i := range universe {
		universe[i] = item.Item(i)
	}
	m, err := fromDB(db, nil, universe, nil)
	if err != nil {
		t.Fatalf("fromDB: %v", err)
	}
	cands := randomCandidates(rng, universe, 301) // odd count: ragged last shard
	seq, err := m.Counts(cands, 1)
	if err != nil {
		t.Fatalf("Counts(seq): %v", err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, err := m.Counts(cands, workers)
		if err != nil {
			t.Fatalf("Counts(%d): %v", workers, err)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: count[%d] = %d, want %d", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestSupportMissingRow(t *testing.T) {
	db := txdb.FromItemsets([]item.Item{0, 1})
	m, err := fromDB(db, nil, item.New(0, 1), nil)
	if err != nil {
		t.Fatalf("fromDB: %v", err)
	}
	for _, c := range []item.Itemset{
		item.New(9),
		item.New(0, 9),
		item.New(0, 1, 9),
	} {
		if _, err := m.Support(c, nil); err == nil {
			t.Fatalf("Support(%v): expected error for missing row", c)
		}
	}
	if _, err := m.Counts([]item.Itemset{item.New(9)}, 1); err == nil {
		t.Fatal("Counts: expected error for missing row")
	}
	if _, err := m.Counts([]item.Itemset{item.New(9), item.New(0)}, 2); err == nil {
		t.Fatal("Counts parallel: expected error for missing row")
	}
}

// TestRowLookupDenseAndSparse: a matrix finds its rows by item id through the
// dense row-of table, or by binary search when its ids spread wider than its
// rows are worth (or are negative), and the two answer alike — every row its
// own, no row for any other id, below, between or past the items.
func TestRowLookupDenseAndSparse(t *testing.T) {
	for _, c := range []struct {
		items item.Itemset
		dense bool
	}{
		{item.New(1, 4, 6), true},
		{item.New(1, 4, 60000), false},
		{item.New(-3, 4, 6), false},
	} {
		m := New(c.items, 640)
		if dense := m.rowOf != nil; dense != c.dense {
			t.Fatalf("%v: dense %v, want %v", c.items, dense, c.dense)
		}
		for r, x := range c.items {
			if !m.Set(x, r) || NextSet(m.Row(x), 0) != r {
				t.Fatalf("%v: item %d is not row %d", c.items, x, r)
			}
		}
		for _, x := range []item.Item{-5, -1, 0, 2, 5, 7, 59999, 60001, 1 << 30} {
			if m.Row(x) != nil || m.Set(x, 0) {
				t.Fatalf("%v: a row for item %d", c.items, x)
			}
		}
		if got, err := m.Support(c.items[1:], nil); err != nil || got != 0 {
			t.Fatalf("%v: Support(%v) = %d, %v", c.items, c.items[1:], got, err)
		}
	}
}

// lyingDB reports a smaller Count than its scan produces.
type lyingDB struct{ *txdb.MemDB }

func (l lyingDB) Count() int { return l.MemDB.Count() - 1 }

func TestFromDBScanOverflow(t *testing.T) {
	db := txdb.FromItemsets([]item.Item{0}, []item.Item{1}, []item.Item{0, 1})
	if _, err := fromDB(lyingDB{db}, nil, item.New(0, 1), nil); err == nil {
		t.Fatal("fromDB: expected error when scan exceeds Count()")
	}
	if _, err := FromDBTaxonomy(lyingDB{db}, mustTax(t), item.New(0, 1)); err == nil {
		t.Fatal("FromDBTaxonomy: expected error when scan exceeds Count()")
	}
}

func mustTax(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tax, _ := buildTax(t)
	return tax
}

func TestKernels(t *testing.T) {
	a := []uint64{0b1100, 0b1010, ^uint64(0)}
	b := []uint64{0b1010, 0b0110, 0}
	dst := make([]uint64, 3)
	And(dst, a, b)
	if dst[0] != 0b1000 || dst[1] != 0b0010 || dst[2] != 0 {
		t.Fatalf("And = %x", dst)
	}
	copy(dst, a)
	AndInto(dst, b)
	if dst[0] != 0b1000 {
		t.Fatalf("AndInto = %x", dst)
	}
	copy(dst, a)
	OrInto(dst, b)
	if dst[0] != 0b1110 {
		t.Fatalf("OrInto = %x", dst)
	}
	if got := PopCount(a); got != 2+2+64 {
		t.Fatalf("PopCount = %d", got)
	}
	if got := AndPopCount(a, b); got != 1+1+0 {
		t.Fatalf("AndPopCount = %d", got)
	}
	// Rows over zero transactions have no words; every kernel is a no-op.
	And(nil, nil, nil)
	AndInto(nil, nil)
	OrInto(nil, nil)
	if got := AndPopCount(nil, nil); got != 0 {
		t.Fatalf("AndPopCount over empty rows = %d", got)
	}
}

func TestEstimateBytes(t *testing.T) {
	if got := EstimateBytes(64, 10); got != 80 {
		t.Fatalf("EstimateBytes(64,10) = %d, want 80", got)
	}
	if got := EstimateBytes(65, 10); got != 160 {
		t.Fatalf("EstimateBytes(65,10) = %d, want 160", got)
	}
	db := txdb.FromItemsets([]item.Item{0, 1, 2})
	m, err := fromDB(db, nil, item.New(0, 1, 2), nil)
	if err != nil {
		t.Fatalf("fromDB: %v", err)
	}
	if m.Bytes() != EstimateBytes(db.Count(), 3) {
		t.Fatalf("Bytes = %d, estimate %d", m.Bytes(), EstimateBytes(db.Count(), 3))
	}
}

package gen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/stats"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// grocery builds a small two-level taxonomy:
//
//	drinks(coke pepsi)  snacks(chips salsa)
func grocery(t testing.TB) (*taxonomy.Taxonomy, map[string]item.Item) {
	t.Helper()
	b := taxonomy.NewBuilder()
	for _, e := range [][2]string{
		{"drinks", "coke"}, {"drinks", "pepsi"},
		{"snacks", "chips"}, {"snacks", "salsa"},
	} {
		b.Link(e[0], e[1])
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]item.Item{}
	for _, n := range []string{"drinks", "coke", "pepsi", "snacks", "chips", "salsa"} {
		ids[n], _ = tax.Dictionary().Lookup(n)
	}
	return tax, ids
}

func groceryDB(ids map[string]item.Item) *txdb.MemDB {
	return txdb.FromItemsets(
		[]item.Item{ids["coke"], ids["chips"]},
		[]item.Item{ids["pepsi"], ids["chips"]},
		[]item.Item{ids["coke"], ids["salsa"]},
		[]item.Item{ids["pepsi"]},
	)
}

func TestCategorySupport(t *testing.T) {
	tax, ids := grocery(t)
	db := groceryDB(ids)
	res, err := Mine(db, tax, Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// drinks appears in all 4 transactions, snacks in 3.
	checks := []struct {
		set  item.Itemset
		want int
	}{
		{item.New(ids["drinks"]), 4},
		{item.New(ids["snacks"]), 3},
		{item.New(ids["coke"]), 2},
		{item.New(ids["pepsi"]), 2},
		{item.New(ids["chips"]), 2},
		{item.New(ids["drinks"], ids["snacks"]), 3},
		{item.New(ids["drinks"], ids["chips"]), 2},
	}
	for _, c := range checks {
		got, ok := res.Table.Count(c.set)
		if !ok || got != c.want {
			t.Errorf("support(%v) = %d (found=%v), want %d", c.set, got, ok, c.want)
		}
	}
	// {coke, drinks} pairs an item with its ancestor: must be pruned.
	if res.Table.Contains(item.New(ids["coke"], ids["drinks"])) {
		t.Error("item+ancestor pair was not pruned")
	}
}

func TestGenLevelAncestorPrune(t *testing.T) {
	tax, ids := grocery(t)
	prev := []item.Itemset{
		item.New(ids["drinks"]), item.New(ids["coke"]), item.New(ids["chips"]),
	}
	// apriori.Gen needs sorted input.
	sortSets(prev)
	cands := genLevel(prev, tax, 2)
	for _, c := range cands {
		if tax.IsAncestor(c[0], c[1]) || tax.IsAncestor(c[1], c[0]) {
			t.Errorf("candidate %v contains an ancestor pair", c)
		}
	}
	if len(cands) != 2 { // {drinks,chips}, {coke,chips}
		t.Errorf("candidates = %v, want 2", cands)
	}
}

func sortSets(sets []item.Itemset) {
	for i := 1; i < len(sets); i++ {
		for j := i; j > 0 && sets[j].Compare(sets[j-1]) < 0; j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
}

// randomTaxDB builds a random taxonomy and a leaf-only transaction database.
func randomTaxDB(seed int64, leaves, nTx, maxLen int) (*taxonomy.Taxonomy, *txdb.MemDB) {
	tax, err := taxonomy.Generate(taxonomy.GenSpec{Leaves: leaves, Roots: 3, Fanout: 3}, stats.NewSource(seed))
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(seed * 31))
	db := &txdb.MemDB{}
	lv := tax.Leaves()
	for i := 0; i < nTx; i++ {
		n := 1 + r.Intn(maxLen)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = lv[r.Intn(len(lv))]
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return tax, db
}

// bruteForceGeneralized is the oracle: extend every transaction with its
// ancestors, count all subsets, drop small ones and ancestor-pair sets.
func bruteForceGeneralized(tax *taxonomy.Taxonomy, db *txdb.MemDB, minCount int) map[item.Key]int {
	counts := map[item.Key]int{}
	db.Scan(func(tx txdb.Transaction) error {
		ext := tax.Extend(tx.Items)
		ext.AllSubsets(false, func(s item.Itemset) {
			counts[s.Key()]++
		})
		return nil
	})
	for k, c := range counts {
		if c < minCount {
			delete(counts, k)
			continue
		}
		s := k.Itemset()
		drop := false
		for i := 0; i < s.Len() && !drop; i++ {
			for j := 0; j < s.Len() && !drop; j++ {
				if i != j && tax.IsAncestor(s[i], s[j]) {
					drop = true
				}
			}
		}
		if drop {
			delete(counts, k)
		}
	}
	return counts
}

func resultMap(res *apriori.Result) map[item.Key]int {
	out := map[item.Key]int{}
	for _, cs := range res.Large() {
		out[cs.Set.Key()] = cs.Count
	}
	return out
}

// TestAlgorithmsAgreeWithBruteForce names Cumulate explicitly, as the
// benchmark harness does; TestZeroValueIsCumulate mines with the zero value.
func TestAlgorithmsAgreeWithBruteForce(t *testing.T) {
	t.Run("Cumulate", func(t *testing.T) {
		for trial := int64(1); trial <= 4; trial++ {
			tax, db := randomTaxDB(trial, 20, 120, 4)
			res, err := Mine(db, tax, Options{MinSupport: 0.08, Algorithm: Cumulate})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameItemsets(resultMap(res), bruteForceGeneralized(tax, db, res.MinCount)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
}

// TestZeroValueIsCumulate: Options' zero Algorithm is Cumulate, so Options
// with only a support mines what the brute force says; any other Algorithm
// is refused by Mine and by NewStepper alike.
func TestZeroValueIsCumulate(t *testing.T) {
	tax, db := randomTaxDB(3, 20, 120, 4)
	res, err := Mine(db, tax, Options{MinSupport: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameItemsets(resultMap(res), bruteForceGeneralized(tax, db, res.MinCount)); err != nil {
		t.Fatal(err)
	}
	bad := Options{MinSupport: 0.08, Algorithm: Algorithm(1)}
	if _, err := Mine(db, tax, bad); err == nil {
		t.Error("Mine accepted Algorithm(1)")
	}
	if _, err := NewStepper(db, tax, bad); err == nil {
		t.Error("NewStepper accepted Algorithm(1)")
	}
}

// sameItemsets reports the first difference between two itemset → count maps.
func sameItemsets(got, want map[item.Key]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d itemsets, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			return fmt.Errorf("%v = %d, want %d", k.Itemset(), got[k], c)
		}
	}
	return nil
}

// TestAlgorithmsIdenticalResults: a mine over the index Mine builds finds
// what the stepper finds level by level over the database itself.
func TestAlgorithmsIdenticalResults(t *testing.T) {
	tax, db := randomTaxDB(9, 30, 300, 5)
	indexed, err := Mine(db, tax, Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(db, tax, Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for {
		lvl, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if lvl == nil {
			break
		}
	}
	if err := sameItemsets(resultMap(s.Result()), resultMap(indexed)); err != nil {
		t.Fatalf("stepped over the database vs mined over the index: %v", err)
	}
}

// TestBackendsIdenticalResults pins counting-backend equivalence at stage 1:
// the miner must produce identical large itemsets and counts under the
// hash-tree and vertical-bitmap engines, sequentially and in parallel.
func TestBackendsIdenticalResults(t *testing.T) {
	tax, db := randomTaxDB(21, 30, 300, 5)
	t.Run("Cumulate", func(t *testing.T) {
		var base map[item.Key]int
		for _, backend := range []count.Backend{count.BackendHashTree, count.BackendBitmap} {
			for _, parallel := range []int{1, 3} {
				opt := Options{MinSupport: 0.05}
				opt.Count.Backend = backend
				opt.Count.Parallelism = parallel
				res, err := Mine(db, tax, opt)
				if err != nil {
					t.Fatalf("%v parallel=%d: %v", backend, parallel, err)
				}
				m := resultMap(res)
				if base == nil {
					base = m
					continue
				}
				if err := sameItemsets(m, base); err != nil {
					t.Fatalf("%v parallel=%d: %v", backend, parallel, err)
				}
			}
		}
	})
}

func TestMaxK(t *testing.T) {
	tax, db := randomTaxDB(13, 20, 150, 5)
	res, err := Mine(db, tax, Options{MinSupport: 0.05, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) > 2 {
		t.Errorf("MaxK=2 produced %d levels", len(res.Levels))
	}
}

func TestOptionsValidation(t *testing.T) {
	tax, _ := grocery(t)
	db := txdb.FromItemsets([]item.Item{0})
	bad := []Options{
		{MinSupport: 0},
		{MinSupport: 2},
		{MinSupport: 0.5, MaxK: -1},
		{MinSupport: 0.5, Count: count.Options{TransformInto: func(_ []item.Item, s item.Itemset) item.Itemset { return s }}},
	}
	for i, opt := range bad {
		if _, err := Mine(db, tax, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if _, err := Mine(db, nil, Options{MinSupport: 0.5}); err == nil {
		t.Error("nil taxonomy accepted")
	}
	if _, err := Mine(db, tax, Options{MinSupport: 0.5, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEmptyDB(t *testing.T) {
	tax, _ := grocery(t)
	res, err := Mine(txdb.FromItemsets(), tax, Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 0 {
		t.Errorf("empty db mined %d levels", len(res.Levels))
	}
}

func TestGeneralizedRules(t *testing.T) {
	// End to end: generalized itemsets feed the standard rule generator,
	// producing rules that mix taxonomy levels.
	tax, ids := grocery(t)
	db := groceryDB(ids)
	res, err := Mine(db, tax, Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := apriori.GenRules(res, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if r.Antecedent.Equal(item.New(ids["snacks"])) && r.Consequent.Equal(item.New(ids["drinks"])) {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("snacks=>drinks confidence %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Errorf("missing generalized rule snacks=>drinks; got %v", rules)
	}
}

func TestParallelGeneralized(t *testing.T) {
	tax, db := randomTaxDB(17, 30, 400, 6)
	seq, err := Mine(db, tax, Options{MinSupport: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(db, tax, Options{MinSupport: 0.04, Count: count.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultMap(seq), resultMap(par)
	if len(a) != len(b) {
		t.Fatalf("parallel size %d vs %d", len(b), len(a))
	}
	for k, c := range a {
		if b[k] != c {
			t.Fatalf("parallel mismatch on %v", k.Itemset())
		}
	}
}

// TestCumulateFilterBuiltOnFirstCall: Cumulate's transform reads its
// candidate groups into the item filter when it is first called, not when it
// is made, and only then — so a pass counted from an index, which never calls
// it, never builds the filter.
func TestCumulateFilterBuiltOnFirstCall(t *testing.T) {
	tax, _ := randomTaxDB(5, 40, 1, 1)
	leaves := tax.Leaves()
	group := []item.Itemset{{leaves[0]}}
	tr := ExtendTransform(tax, group)
	group[0][0] = leaves[1] // before the first call: this is the filter
	if got := tr(nil, item.Itemset{leaves[1]}); !got.Contains(leaves[1]) {
		t.Fatalf("first call kept %v of {%d}: the filter was built when the transform was made", got, leaves[1])
	}
	group[0][0] = leaves[0] // after it: too late
	if got := tr(nil, item.Itemset{leaves[0]}); got.Contains(leaves[0]) {
		t.Fatalf("second call kept %v of {%d}: the filter was built again", got, leaves[0])
	}
}

// TestLevel2ReadOffThePairTable: over an index whose rows carry a pair table,
// level 2 is read off the table — a mine makes one counting pass fewer than
// over the same index with the tables declined — and decides the same large
// itemsets with the same counts.
func TestLevel2ReadOffThePairTable(t *testing.T) {
	tax, db := randomTaxDB(9, 30, 300, 5)
	// passes mines with budget mem and returns what it found and how many
	// counting passes it made; the failpoint never fires, it only counts.
	passes := func(mem *govern.Budget) (*apriori.Result, int64) {
		defer fault.Enable(count.PointPass, fault.Error("never"), fault.OnHit(math.MaxInt32))()
		res, err := Mine(db, tax, Options{MinSupport: 0.05, Count: count.Options{Mem: mem}})
		if err != nil {
			t.Fatal(err)
		}
		return res, fault.Hits(count.PointPass)
	}
	table, withTable := passes(nil)
	if len(table.Levels) < 3 {
		t.Fatalf("%d levels, want 3 or more (test setup)", len(table.Levels))
	}
	rows := bitmat.EstimateBytes(db.Count(), len(table.Levels[0]))
	counted, without := passes(govern.NewBudget(rows))
	if withTable != without-1 {
		t.Fatalf("%d counting passes with the pair table, %d without; want one fewer", withTable, without)
	}
	if err := sameItemsets(resultMap(table), resultMap(counted)); err != nil {
		t.Fatalf("with the pair table vs without: %v", err)
	}
	for i, cs := range table.Levels[1] {
		if i > 0 && table.Levels[1][i-1].Set.Compare(cs.Set) >= 0 {
			t.Fatalf("L2 out of order at %v", cs.Set)
		}
	}
}

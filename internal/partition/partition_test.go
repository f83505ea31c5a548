package partition

import (
	"math/rand"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/stats"
	"negmine/internal/taxonomy"
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

func asMap(res *apriori.Result) map[item.Key]int {
	out := map[item.Key]int{}
	for _, cs := range res.Large() {
		out[cs.Set.Key()] = cs.Count
	}
	return out
}

func TestMatchesApriori(t *testing.T) {
	for _, parts := range []int{1, 3, 7, 1000} {
		for trial := int64(1); trial <= 3; trial++ {
			db := randomDB(trial, 150, 15, 6)
			want, err := apriori.Mine(db, apriori.Options{MinSupport: 0.08})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Mine(db, Options{MinSupport: 0.08, NumPartitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			w, g := asMap(want), asMap(got)
			if len(w) != len(g) {
				t.Fatalf("parts=%d trial=%d: %d itemsets vs apriori's %d", parts, trial, len(g), len(w))
			}
			for k, c := range w {
				if g[k] != c {
					t.Fatalf("parts=%d trial=%d: %v = %d, want %d", parts, trial, k.Itemset(), g[k], c)
				}
			}
		}
	}
}

func TestMatchesGeneralized(t *testing.T) {
	tax, err := taxonomy.Generate(taxonomy.GenSpec{Leaves: 20, Roots: 3, Fanout: 3}, stats.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	db := &txdb.MemDB{}
	lv := tax.Leaves()
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(4)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = lv[r.Intn(len(lv))]
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	want, err := gen.Mine(db, tax, gen.Options{MinSupport: 0.06, Algorithm: gen.Cumulate})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(db, Options{MinSupport: 0.06, NumPartitions: 4, Taxonomy: tax})
	if err != nil {
		t.Fatal(err)
	}
	w, g := asMap(want), asMap(got)
	if len(w) != len(g) {
		t.Fatalf("generalized partition mined %d itemsets, want %d", len(g), len(w))
	}
	for k, c := range w {
		if g[k] != c {
			t.Fatalf("generalized partition: %v = %d, want %d", k.Itemset(), g[k], c)
		}
	}
}

// TestBackendsMatch pins counting-backend equivalence for the phase-II
// global count: flat and generalized partition mining must return identical
// supports under the hash-tree and vertical-bitmap engines.
func TestBackendsMatch(t *testing.T) {
	flat := randomDB(31, 200, 15, 6)
	tax, err := taxonomy.Generate(taxonomy.GenSpec{Leaves: 20, Roots: 3, Fanout: 3}, stats.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	lv := tax.Leaves()
	leafy := &txdb.MemDB{}
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(4)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = lv[r.Intn(len(lv))]
		}
		leafy.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	cases := []struct {
		name string
		db   *txdb.MemDB
		tax  *taxonomy.Taxonomy
	}{
		{"flat", flat, nil},
		{"generalized", leafy, tax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base map[item.Key]int
			for _, backend := range []count.Backend{count.BackendHashTree, count.BackendBitmap} {
				opt := Options{MinSupport: 0.06, NumPartitions: 4, Taxonomy: tc.tax}
				opt.Count.Backend = backend
				res, err := Mine(tc.db, opt)
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				m := asMap(res)
				if base == nil {
					base = m
					continue
				}
				if len(m) != len(base) {
					t.Fatalf("%v: %d itemsets, want %d", backend, len(m), len(base))
				}
				for k, c := range base {
					if m[k] != c {
						t.Fatalf("%v: %v = %d, want %d", backend, k.Itemset(), m[k], c)
					}
				}
			}
		})
	}
}

func TestExactlyTwoPasses(t *testing.T) {
	db := txdb.Instrument(randomDB(5, 300, 20, 6))
	_, err := Mine(db, Options{MinSupport: 0.05, NumPartitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Passes(); got != 2 {
		t.Errorf("Partition used %d passes, want 2", got)
	}
}

func TestEmptyAndEdge(t *testing.T) {
	res, err := Mine(txdb.FromItemsets(), Options{MinSupport: 0.5})
	if err != nil || len(res.Levels) != 0 {
		t.Errorf("empty db: %v, levels=%d", err, len(res.Levels))
	}
	// Single transaction, single partition bigger than db.
	res, err = Mine(txdb.FromItemsets([]item.Item{1, 2}), Options{MinSupport: 1, NumPartitions: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Table.Count(item.New(1, 2)); got != 1 {
		t.Errorf("support({1,2}) = %d", got)
	}
}

func TestValidation(t *testing.T) {
	db := txdb.FromItemsets([]item.Item{1})
	for i, opt := range []Options{
		{MinSupport: 0},
		{MinSupport: 1.2},
		{MinSupport: 0.5, NumPartitions: -1},
		{MinSupport: 0.5, MaxK: -2},
		{MinSupport: 0.5, Count: count.Options{TransformInto: func(_ []item.Item, s item.Itemset) item.Itemset { return s }}},
	} {
		if _, err := Mine(db, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestMaxK(t *testing.T) {
	db := randomDB(6, 100, 8, 6)
	res, err := Mine(db, Options{MinSupport: 0.1, NumPartitions: 3, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Large() {
		if cs.Set.Len() > 2 {
			t.Errorf("MaxK=2 produced %v", cs.Set)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := tidset{1, 3, 5, 7}
	b := tidset{3, 4, 5, 8}
	got := intersect(a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("intersect = %v", got)
	}
	if out := intersect(a, nil); len(out) != 0 {
		t.Errorf("intersect with empty = %v", out)
	}
}

func TestParallelPhaseOneMatches(t *testing.T) {
	db := randomDB(21, 600, 25, 7)
	seq, err := Mine(db, Options{MinSupport: 0.04, NumPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(db, Options{
		MinSupport: 0.04, NumPartitions: 6,
		Count: count.Options{Parallelism: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := asMap(seq), asMap(par)
	if len(a) != len(b) {
		t.Fatalf("parallel phase I mined %d itemsets, sequential %d", len(b), len(a))
	}
	for k, c := range a {
		if b[k] != c {
			t.Fatalf("parallel mismatch on %v: %d vs %d", k.Itemset(), b[k], c)
		}
	}
}

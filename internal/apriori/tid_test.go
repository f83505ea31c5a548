package apriori

import (
	"math/rand"
	"testing"

	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

func TestMineTidClassic(t *testing.T) {
	res, err := MineTid(classicDB(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Mine(classicDB(), Options{MinSupport: 0.5})
	a, b := want.Large(), res.Large()
	if len(a) != len(b) {
		t.Fatalf("MineTid found %d itemsets, Mine found %d", len(b), len(a))
	}
	for i := range a {
		if !a[i].Set.Equal(b[i].Set) || a[i].Count != b[i].Count {
			t.Errorf("itemset %d: %v/%d vs %v/%d", i, b[i].Set, b[i].Count, a[i].Set, a[i].Count)
		}
	}
}

func TestMineTidMatchesMineRandom(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		db := &txdb.MemDB{}
		nTx := 50 + r.Intn(100)
		for i := 0; i < nTx; i++ {
			n := 1 + r.Intn(7)
			raw := make([]item.Item, n)
			for j := range raw {
				raw[j] = item.Item(r.Intn(15))
			}
			db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
		}
		minSup := 0.05 + r.Float64()*0.25
		want, err := Mine(db, Options{MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MineTid(db, Options{MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		a, b := want.Large(), got.Large()
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d itemsets", trial, len(b), len(a))
		}
		for i := range a {
			if !a[i].Set.Equal(b[i].Set) || a[i].Count != b[i].Count {
				t.Fatalf("trial %d itemset %d: %v/%d vs %v/%d",
					trial, i, b[i].Set, b[i].Count, a[i].Set, a[i].Count)
			}
		}
	}
}

func TestMineTidSingleDataPass(t *testing.T) {
	// AprioriTid reads the raw data during pass 1 only (Singletons + the
	// id-list build = 2 scans); every later level works on id lists.
	db := txdb.Instrument(classicDB())
	if _, err := MineTid(db, Options{MinSupport: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := db.Passes(); got != 2 {
		t.Errorf("MineTid scanned the data %d times, want 2", got)
	}
}

func TestMineTidTransform(t *testing.T) {
	db := txdb.FromItemsets([]item.Item{10}, []item.Item{10}, []item.Item{12})
	res, err := MineTid(db, Options{
		MinSupport: 0.5,
		Count: count.Options{TransformInto: func(dst []item.Item, s item.Itemset) item.Itemset {
			for _, x := range s {
				dst = append(dst, x/2)
			}
			return item.SortDedup(dst)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := res.Table.Count(item.New(5)); c != 2 {
		t.Errorf("transformed count = %d, want 2", c)
	}
}

func TestMineTidEmptyAndValidation(t *testing.T) {
	res, err := MineTid(txdb.FromItemsets(), Options{MinSupport: 0.5})
	if err != nil || len(res.Levels) != 0 {
		t.Errorf("empty db: %v, %d levels", err, len(res.Levels))
	}
	if _, err := MineTid(classicDB(), Options{MinSupport: 0}); err == nil {
		t.Error("invalid options accepted")
	}
	resK, err := MineTid(classicDB(), Options{MinSupport: 0.5, MaxK: 1})
	if err != nil || len(resK.Levels) != 1 {
		t.Errorf("MaxK=1: %v, %d levels", err, len(resK.Levels))
	}
}

func BenchmarkMineApriori(b *testing.B) {
	db := benchDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, Options{MinSupport: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineAprioriTid(b *testing.B) {
	db := benchDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineTid(db, Options{MinSupport: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDB() *txdb.MemDB {
	r := rand.New(rand.NewSource(3))
	db := &txdb.MemDB{}
	for i := 0; i < 2000; i++ {
		n := 2 + r.Intn(8)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = item.Item(r.Intn(60))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return db
}

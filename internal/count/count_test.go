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

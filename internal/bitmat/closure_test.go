package bitmat

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// fillMapWalk is the closure fill FillWindows made before it resolved rows
// once per fill: one map lookup per item and per ancestor of every
// transaction. It stays as the reference the dense fill is held to.
func fillMapWalk(m *Matrix, db txdb.DB, tax *taxonomy.Taxonomy, full func()) error {
	pos := 0
	return db.Scan(func(tx txdb.Transaction) error {
		if pos == m.n {
			full()
			clear(m.bits)
			pos = 0
		}
		for _, x := range tx.Items {
			m.Set(x, pos)
			for _, a := range tax.AncestorsOf(x) {
				m.Set(a, pos)
			}
		}
		pos++
		return nil
	})
}

// TestDenseClosureFillMatchesMapWalk: over random forests — several roots,
// single-child categories, deep chains — and transactions that hold leaves,
// categories and items the taxonomy does not know, with rows for a random
// subset of all of those (so rowless leaves must still reach their
// ancestors' rows), the dense fill sets exactly the bits the map walk sets,
// in every window.
func TestDenseClosureFillMatchesMapWalk(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := taxonomy.NewBuilder()
		nodes := 4 + r.Intn(30)
		for i := 0; i < nodes; i++ {
			if name := "n" + strconv.Itoa(i); i < 2 || r.Intn(6) == 0 {
				b.Node(name)
			} else {
				b.Link("n"+strconv.Itoa(r.Intn(i)), name)
			}
		}
		tax, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		universe := nodes + 3 // the last three ids are off-taxonomy
		db := &txdb.MemDB{}
		for i, n := 0, r.Intn(300); i < n; i++ {
			raw := make([]item.Item, r.Intn(6)) // empty transactions included
			for j := range raw {
				raw[j] = item.Item(r.Intn(universe))
			}
			db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
		}
		var rows item.Itemset
		for x := 0; x < universe; x++ {
			if r.Intn(3) > 0 {
				rows = append(rows, item.Item(x))
			}
		}
		width := db.Count()
		if seed%2 == 0 {
			width = 64 * (1 + r.Intn(3)) // several windows, the last one partial
		}
		var got, want [][]uint64
		dense, ref := New(rows, width), New(rows, width)
		if err := dense.FillWindows(db, tax, nil, func() error {
			got = append(got, slices.Clone(dense.bits))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := fillMapWalk(ref, db, tax, func() { want = append(want, slices.Clone(ref.bits)) }); err != nil {
			t.Fatal(err)
		}
		got, want = append(got, dense.bits), append(want, ref.bits)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d windows, reference %d", seed, len(got), len(want))
		}
		for w := range want {
			if !slices.Equal(got[w], want[w]) {
				t.Fatalf("seed %d: window %d of %d differs from the map walk", seed, w, len(want))
			}
		}
	}
}

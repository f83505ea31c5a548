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

// scanOnly hides a database's ScanShard.
type scanOnly struct{ txdb.DB }

// TestDenseClosureFillMatchesMapWalk: over random forests — several roots,
// single-child categories, deep chains — and transactions that hold leaves,
// categories and items the taxonomy does not know, several under one
// ancestor, with rows for a random subset of all of those (so rowless leaves
// must still reach their ancestors' rows), the dense fill sets exactly the
// bits the map walk sets, in every window. Where the matrix is as wide as
// the database — the empty one included — the fill also counts pairs: the
// table answers every pair of rows, item–ancestor pairs too, as AND+popcount
// of the two rows does (each pair once per transaction), and 1, 2 or 5
// workers — more than there are words, so some shards are empty — over a
// Sharder or a database that can only be scanned whole leave the same bits
// and the same counts.
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
		n := r.Intn(300)
		if seed%10 == 1 {
			n = 0 // the empty database, at full width
		}
		for i := 0; i < n; i++ {
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
		if err := dense.FillWindows(db, tax, nil, 1, func() error {
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
		if width < db.Count() {
			continue
		}
		for _, workers := range []int{1, 2, 5} {
			for _, db := range []txdb.DB{db, scanOnly{db}} {
				m := New(rows, width)
				m.CountPairs()
				if err := m.FillWindows(db, tax, nil, workers, nil); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(m.bits, ref.bits) {
					t.Fatalf("seed %d: %d workers over %T: bits differ from the map walk", seed, workers, db)
				}
				for i, a := range rows {
					for _, b := range rows[i+1:] {
						got, err := m.Support(item.Itemset{a, b}, nil)
						if want := AndPopCount(ref.Row(a), ref.Row(b)); err != nil || got != want {
							t.Fatalf("seed %d: %d workers over %T: pair {%d %d} counted %d (%v), its rows say %d", seed, workers, db, a, b, got, err, want)
						}
					}
				}
			}
		}
	}
}

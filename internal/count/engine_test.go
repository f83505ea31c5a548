package count

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/govern"
	"negmine/internal/hashtree"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// testTax builds a two-level taxonomy whose leaves are the first nLeaves
// interned ids (grouped under one category per 4 leaves).
func testTax(t testing.TB, nLeaves int) (*taxonomy.Taxonomy, item.Itemset) {
	t.Helper()
	b := taxonomy.NewBuilder()
	var leaves []item.Item
	for i := 0; i < nLeaves; i++ {
		cat := "cat" + string(rune('A'+i/4))
		_, leaf := b.Link(cat, "leaf"+string(rune('a'+i%26))+string(rune('0'+i/26)))
		leaves = append(leaves, leaf)
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tax, item.New(leaves...)
}

// leafDB builds a random database over the given leaf ids.
func leafDB(seed int64, leaves item.Itemset, nTx, maxLen int) *txdb.MemDB {
	r := rand.New(rand.NewSource(seed))
	db := &txdb.MemDB{}
	for i := 0; i < nTx; i++ {
		n := 1 + r.Intn(maxLen)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = leaves[r.Intn(leaves.Len())]
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return db
}

func randomGroups(r *rand.Rand, universe item.Itemset, nGroups int) [][]item.Itemset {
	groups := make([][]item.Itemset, nGroups)
	for g := range groups {
		size := g + 1
		seen := map[string]bool{}
		for len(groups[g]) < 10+r.Intn(20) {
			raw := make([]item.Item, size)
			for j := range raw {
				raw[j] = universe[r.Intn(universe.Len())]
			}
			c := item.New(raw...)
			if c.Len() == size && !seen[c.String()] {
				seen[c.String()] = true
				groups[g] = append(groups[g], c)
			}
		}
	}
	return groups
}

// TestBackendsAgreeOnRandomDBs is the cross-backend oracle: both engines
// must return identical counts for the same randomized pass — the empty
// database included — with and without a shared transform, sequentially and
// in parallel.
func TestBackendsAgreeOnRandomDBs(t *testing.T) {
	for trial, nTx := range []int{0, 150, 187, 224, 261} {
		trial := int64(trial)
		r := rand.New(rand.NewSource(100 + trial))
		db := randomDB(200+trial, nTx, 40, 10)
		universe := make(item.Itemset, 40)
		for i := range universe {
			universe[i] = item.Item(i)
		}
		groups := randomGroups(r, universe, 3)
		for _, parallel := range []int{1, 4} {
			for name, tr := range map[string]TransformInto{
				"identity": nil,
				"shift": func(dst []item.Item, s item.Itemset) item.Itemset {
					for _, x := range s {
						dst = append(dst, x, (x+7)%40)
					}
					return item.SortDedup(dst)
				},
			} {
				ht, err := HashTreeEngine{}.Multi(db, groups, nil, Options{Parallelism: parallel, TransformInto: tr})
				if err != nil {
					t.Fatalf("hashtree: %v", err)
				}
				bm, err := BitmapEngine{}.Multi(db, groups, nil, Options{Parallelism: parallel, TransformInto: tr})
				if err != nil {
					t.Fatalf("bitmap: %v", err)
				}
				for g := range groups {
					for i := range groups[g] {
						if ht[g][i] != bm[g][i] {
							t.Fatalf("trial %d %s parallel=%d: group %d cand %v: hashtree %d, bitmap %d",
								trial, name, parallel, g, groups[g][i], ht[g][i], bm[g][i])
						}
					}
				}
			}
		}
	}
}

// TestBackendsAgreeWithTaxonomy checks the ancestor-closure fast path:
// per-group ancestor-extension transforms plus the Tax declaration must
// give the bitmap engine the same counts the hash tree gets by applying
// the transforms.
func TestBackendsAgreeWithTaxonomy(t *testing.T) {
	tax, leaves := testTax(t, 16)
	db := leafDB(42, leaves, 300, 8)
	r := rand.New(rand.NewSource(43))
	universe := leaves.Union(tax.Categories())
	groups := randomGroups(r, universe, 3)
	extend := func(dst []item.Item, s item.Itemset) item.Itemset { return tax.ExtendInto(dst, s) }
	transforms := make([]TransformInto, len(groups))
	for g := range transforms {
		transforms[g] = extend
	}
	opt := Options{Tax: tax}
	ht, err := HashTreeEngine{}.Multi(db, groups, transforms, opt)
	if err != nil {
		t.Fatalf("hashtree: %v", err)
	}
	bm, err := BitmapEngine{}.Multi(db, groups, transforms, opt)
	if err != nil {
		t.Fatalf("bitmap: %v", err)
	}
	for g := range groups {
		for i := range groups[g] {
			if ht[g][i] != bm[g][i] {
				t.Fatalf("group %d cand %v: hashtree %d, bitmap %d", g, groups[g][i], ht[g][i], bm[g][i])
			}
		}
	}
}

func TestBitmapRejectsOpaquePerGroupTransforms(t *testing.T) {
	db := randomDB(1, 20, 10, 5)
	groups := [][]item.Itemset{{item.New(1, 2)}}
	transforms := []TransformInto{func(dst []item.Item, s item.Itemset) item.Itemset { return s }}
	if _, err := (BitmapEngine{}).Multi(db, groups, transforms, Options{}); err == nil {
		t.Fatal("expected error for per-group transforms without Tax")
	}
}

func TestEngineForSelection(t *testing.T) {
	db := randomDB(2, 100, 20, 6)
	path := filepath.Join(t.TempDir(), "db.nmtx")
	if err := txdb.WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	file, err := txdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perGroup := []TransformInto{func(dst []item.Item, s item.Itemset) item.Itemset { return s }}
	tax, _ := testTax(t, 8)
	cases := []struct {
		name       string
		db         txdb.DB
		transforms []TransformInto
		opt        Options
		want       Engine
	}{
		{"auto memdb", db, nil, Options{}, BitmapEngine{}},
		{"explicit hashtree", db, nil, Options{Backend: BackendHashTree}, HashTreeEngine{}},
		{"explicit bitmap on wrapped db", txdb.Instrument(db), nil, Options{Backend: BackendBitmap}, BitmapEngine{}},
		{"auto file db", file, nil, Options{}, BitmapEngine{}},
		{"auto instrumented db", txdb.Instrument(db), nil, Options{}, BitmapEngine{}},
		{"auto throttled db", txdb.Throttle(db, time.Microsecond), nil, Options{}, BitmapEngine{}},
		{"auto under a tiny budget", db, nil, Options{Mem: govern.NewBudget(1)}, BitmapEngine{}},
		{"auto per-group no tax", db, perGroup, Options{}, HashTreeEngine{}},
		{"auto per-group with tax", db, perGroup, Options{Tax: tax}, BitmapEngine{}},
	}
	for _, tc := range cases {
		if got := EngineFor(tc.db, tc.transforms, tc.opt); got != tc.want {
			t.Errorf("%s: EngineFor = %T, want %T", tc.name, got, tc.want)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"":         BackendAuto,
		"auto":     BackendAuto,
		"hashtree": BackendHashTree,
		"Bitmap":   BackendBitmap,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("Backend(%v).String() empty", got)
		}
	}
	if _, err := ParseBackend("btree"); err == nil {
		t.Error("ParseBackend(btree): expected error")
	}
}

// TestCountingAllocationFree pins the steady-state guarantee of the
// hash-tree engine's per-transaction path: with a TransformInto installed
// (shared and per-group), probing allocates nothing once buffers are warm.
func TestCountingAllocationFree(t *testing.T) {
	tax, leaves := testTax(t, 16)
	db := leafDB(7, leaves, 60, 8)
	r := rand.New(rand.NewSource(8))
	universe := leaves.Union(tax.Categories())
	groups := randomGroups(r, universe, 3)
	trees := make([]*hashtree.Tree, len(groups))
	for g, cands := range groups {
		tr, err := hashtree.Build(cands, 0)
		if err != nil {
			t.Fatal(err)
		}
		trees[g] = tr
	}
	extend := func(dst []item.Item, s item.Itemset) item.Itemset { return tax.ExtendInto(dst, s) }
	txs := db.Transactions()

	w := newHashTreeWorker(trees)
	opt := Options{TransformInto: extend}
	warm := func(transforms []TransformInto) {
		for _, tx := range txs {
			w.addAll(transforms, opt, tx.Items)
		}
	}
	warm(nil)
	if allocs := testing.AllocsPerRun(50, func() { warm(nil) }); allocs != 0 {
		t.Fatalf("shared-transform counting allocated %v times per run, want 0", allocs)
	}
	transforms := []TransformInto{extend, extend, extend}
	warm(transforms)
	if allocs := testing.AllocsPerRun(50, func() { warm(transforms) }); allocs != 0 {
		t.Fatalf("per-group-transform counting allocated %v times per run, want 0", allocs)
	}
}

// TestSharedTransformComputedOncePerTransaction pins the MultiTransformed
// fix: groups without their own transform share one transformed itemset per
// transaction instead of re-running the extension per group.
func TestSharedTransformComputedOncePerTransaction(t *testing.T) {
	db := randomDB(9, 25, 15, 6)
	groups := [][]item.Itemset{
		{item.New(1, 2)},
		{item.New(1, 2, 3)},
		{item.New(2, 3, 4, 5)},
	}
	calls := 0
	opt := Options{
		Backend: BackendHashTree,
		TransformInto: func(dst []item.Item, s item.Itemset) item.Itemset {
			calls++
			return append(dst, s...)
		},
	}
	if _, err := MultiTransformed(db, groups, nil, opt); err != nil {
		t.Fatal(err)
	}
	if calls != db.Count() {
		t.Fatalf("shared transform ran %d times for %d transactions × %d groups, want %d",
			calls, db.Count(), len(groups), db.Count())
	}
}

// indexedDB is a count.Indexed whose every scan fails: whatever it answers,
// it answered from its index.
type indexedDB struct {
	n       int
	tax     *taxonomy.Taxonomy
	singles []int
	rows    *bitmat.Matrix
}

func (d *indexedDB) Count() int                   { return d.n }
func (d *indexedDB) Taxonomy() *taxonomy.Taxonomy { return d.tax }
func (d *indexedDB) Singletons() []int            { return d.singles }
func (d *indexedDB) Matrix() *bitmat.Matrix       { return d.rows }
func (d *indexedDB) Counts(cands []item.Itemset, workers int) ([]int, error) {
	return d.rows.Counts(cands, workers)
}
func (d *indexedDB) Scan(func(txdb.Transaction) error) error {
	return errors.New("indexedDB: scanned")
}

// denseMatches checks dense 1-item counts, indexed by item id, against a
// map recount: every counted item has its count, every other id in range
// has none, and the range ends at the highest item counted.
func denseMatches(got []int, ref map[item.Item]int) error {
	top := item.Item(-1)
	for x := range ref {
		top = max(top, x)
	}
	if len(got) != int(top)+1 {
		return fmt.Errorf("%d ids counted, reference ends at %d", len(got), top)
	}
	for x, n := range got {
		if n != ref[item.Item(x)] {
			return fmt.Errorf("item %d counted %d, reference %d", x, n, ref[item.Item(x)])
		}
	}
	return nil
}

// TestIndexedDatabaseIsNotScanned pins the seam internal/incr refreshes
// through: a database that carries its own vertical index answers Singletons
// and every counting pass declared under its taxonomy — whatever Backend
// says — with the counts a scan gives, and is scanned for anything else.
func TestIndexedDatabaseIsNotScanned(t *testing.T) {
	tax, leaves := testTax(t, 16)
	db := leafDB(7, leaves, 300, 8)
	universe := leaves.Union(tax.Categories())
	rows, err := bitmat.FromDBTaxonomy(db, tax, universe)
	if err != nil {
		t.Fatal(err)
	}
	scanOpt := Options{TransformInto: tax.ExtendInto}
	wantSingles, err := Singletons(db, scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	// The dense per-worker counters against a map-based recount.
	ref := map[item.Item]int{}
	for _, tx := range db.Transactions() {
		for _, x := range tax.Extend(tx.Items) {
			ref[x]++
		}
	}
	if err := denseMatches(wantSingles, ref); err != nil {
		t.Fatalf("Singletons: %v", err)
	}

	ix := &indexedDB{n: db.Count(), tax: tax, singles: wantSingles, rows: rows}
	groups := randomGroups(rand.New(rand.NewSource(8)), universe, 3)
	want, err := HashTreeEngine{}.Multi(db, groups, nil, scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendAuto, BackendHashTree, BackendBitmap} {
		opt := Options{TransformInto: tax.ExtendInto, Tax: tax, Backend: backend}
		got, err := Multi(ix, groups, opt)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		for g := range groups {
			for i := range groups[g] {
				if got[g][i] != want[g][i] {
					t.Fatalf("%v: group %d cand %v: indexed %d, scanned %d", backend, g, groups[g][i], got[g][i], want[g][i])
				}
			}
		}
		if singles, err := Singletons(ix, opt); err != nil || &singles[0] != &wantSingles[0] {
			t.Fatalf("%v: Singletons did not come from the index (err %v)", backend, err)
		}
	}
	other, _ := testTax(t, 16)
	for name, opt := range map[string]Options{"no taxonomy declared": scanOpt, "another taxonomy": {TransformInto: tax.ExtendInto, Tax: other}} {
		if _, err := Multi(ix, groups, opt); err == nil {
			t.Errorf("%s: Multi answered from the index", name)
		}
		if _, err := Singletons(ix, opt); err == nil {
			t.Errorf("%s: Singletons answered from the index", name)
		}
	}
}

// TestFlattenTakesOneSliceAsIs: groups cut in order from one slice, each with
// a capacity running to the end of the last, flatten to that slice without a
// copy; groups that are not — cut with full slice expressions, out of order,
// from two slices — flatten to a copy with the same sets in group order.
func TestFlattenTakesOneSliceAsIs(t *testing.T) {
	sets := []item.Itemset{item.New(1, 2), item.New(1, 3), item.New(1, 2, 3), item.New(2, 3, 4), item.New(1, 2, 3, 4)}
	same := func(flat []item.Itemset, groups [][]item.Itemset) bool {
		i := 0
		for _, g := range groups {
			for _, s := range g {
				if i >= len(flat) || !flat[i].Equal(s) {
					return false
				}
				i++
			}
		}
		return i == len(flat)
	}
	one := [][]item.Itemset{sets[0:2:5], sets[2:2:5], sets[2:4:5], sets[4:5:5]}
	if flat := flatten(one); len(flat) != len(sets) || &flat[0] != &sets[0] || !same(flat, one) {
		t.Fatalf("groups of one slice: flatten copied them, or changed them: %v", flat)
	}
	for name, groups := range map[string][][]item.Itemset{
		"full slice expressions": {sets[0:2:2], sets[2:4:4], sets[4:5:5]},
		"out of order":           {sets[2:4:5], sets[0:2:5], sets[4:5:5]},
		"two slices":             {sets[0:2:5], slices.Clone(sets[2:5])},
	} {
		if flat := flatten(groups); &flat[0] == &groups[0][0] || !same(flat, groups) {
			t.Fatalf("%s: flatten = %v, want a copy of the groups in order", name, flat)
		}
	}
	if flat := flatten(nil); len(flat) != 0 {
		t.Fatalf("flatten(nil) = %v", flat)
	}
}

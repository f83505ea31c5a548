package count

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/datagen"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// scanOnly hides a database's ScanShard: the non-Sharder every pass must
// also work over.
type scanOnly struct{ txdb.DB }

// randomForest draws a taxonomy with several roots, single-child categories
// and chains of varying depth, and a database over its nodes — leaves and,
// now and then, a category — plus three ids the taxonomy does not know;
// some transactions are empty and the count is not a multiple of 64.
func randomForest(t testing.TB, seed int64) (*taxonomy.Taxonomy, *txdb.MemDB) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := taxonomy.NewBuilder()
	nodes := 5 + r.Intn(30)
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
	db := &txdb.MemDB{}
	for i, n := 0, 64*r.Intn(6)+1+r.Intn(63); i < n; i++ {
		raw := make([]item.Item, r.Intn(7))
		for j := range raw {
			raw[j] = item.Item(r.Intn(nodes + 3))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return tax, db
}

// extendCounts is pass 1 by the definition: build every transaction's
// ancestor extension, count its members.
func extendCounts(db *txdb.MemDB, tax *taxonomy.Taxonomy) map[item.Item]int {
	ref := map[item.Item]int{}
	for _, tx := range db.Transactions() {
		for _, x := range tax.Extend(tx.Items) {
			ref[x]++
		}
	}
	return ref
}

// TestStampPassOneMatchesExtend: counting the ancestor extension node by
// node with last-seen stamps gives the counts of building it, on a Sharder
// and on a plain scanner, with one worker or several.
func TestStampPassOneMatchesExtend(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		tax, mem := randomForest(t, seed)
		ref := extendCounts(mem, tax)
		for _, db := range []txdb.DB{mem, scanOnly{mem}, &txdb.MemDB{}} {
			want := ref
			if db.Count() == 0 {
				want = nil
			}
			for _, workers := range []int{1, 2, 5} {
				// The transform is declared, not run: Tax says what it is.
				got, err := Singletons(db, Options{Tax: tax, Parallelism: workers, TransformInto: tax.ExtendInto})
				if err != nil {
					t.Fatal(err)
				}
				if err := denseMatches(got, want); err != nil {
					t.Fatalf("seed %d %T workers %d: %v", seed, db, workers, err)
				}
			}
		}
	}
}

// TestBuildIndexMatchesScans: the index BuildIndex takes with two scans —
// one worker or several, sharded or not — answers what the scans it replaces
// answer: Singletons' counts, for exactly the items counted minCount times
// the rows FromDBTaxonomy fills, and for every pair of them what AND+popcount
// of the two rows counts, from the table — looked up one by one, and read
// off it in lexicographic order by PairCounts. It holds the rows' and one
// table's bytes, no more, until Release. With room for the rows alone the
// tables are declined and PairCounts has nothing to read.
func TestBuildIndexMatchesScans(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		tax, mem := randomForest(t, seed)
		ref := extendCounts(mem, tax)
		minCount := 1 + int(seed)%(mem.Count()/8+1)
		var large item.Itemset
		for x, n := range ref {
			if n >= minCount {
				large = append(large, x)
			}
		}
		large = item.SortDedup(large)
		want, err := bitmat.FromDBTaxonomy(mem, tax, large)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []item.Itemset
		for i, a := range large {
			for _, b := range large[i+1:] {
				pairs = append(pairs, item.Itemset{a, b})
			}
		}
		wantPairs, err := want.Counts(pairs, 1) // AND+popcount: want carries no table
		if err != nil {
			t.Fatal(err)
		}
		ins := txdb.Instrument(mem)
		for _, db := range []txdb.DB{ins, scanOnly{ins}} {
			for _, workers := range []int{1, 2, 5} {
				ins.Reset()
				budget := govern.NewBudget(0)
				ix, err := BuildIndex(db, tax, minCount, Options{Parallelism: workers, Mem: budget})
				if err != nil {
					t.Fatal(err)
				}
				if scans := ins.Passes() + ins.ShardScans()/workers; scans != 2 {
					t.Fatalf("seed %d: %d scans, want 2", seed, scans)
				}
				if !ix.Matrix().Items().Equal(large) {
					t.Fatalf("seed %d: rows for %v, want the large items %v", seed, ix.Matrix().Items(), large)
				}
				for _, x := range large {
					if !slices.Equal(ix.Matrix().Row(x), want.Row(x)) {
						t.Fatalf("seed %d, %d workers: row of item %d differs from FromDBTaxonomy's", seed, workers, x)
					}
				}
				if ix.Matrix().PairBytes() != bitmat.EstimatePairBytes(large.Len()) {
					t.Fatalf("seed %d: a %d-byte table for %d rows", seed, ix.Matrix().PairBytes(), large.Len())
				}
				if got, err := ix.Matrix().Counts(pairs, workers); err != nil || !slices.Equal(got, wantPairs) {
					t.Fatalf("seed %d, %d workers: the table counts the pairs %v (%v), their rows %v", seed, workers, got, err, wantPairs)
				}
				var read []item.Itemset
				var readCounts []int
				if !ix.Matrix().PairCounts(func(a, b item.Item, n int) {
					read, readCounts = append(read, item.Itemset{a, b}), append(readCounts, n)
				}) || !slices.EqualFunc(read, pairs, item.Itemset.Equal) || !slices.Equal(readCounts, wantPairs) {
					t.Fatalf("seed %d, %d workers: the table reads the pairs %v with counts %v, want %v with their rows' %v", seed, workers, read, readCounts, pairs, wantPairs)
				}
				if err := denseMatches(ix.Singletons(), ref); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := budget.InUse(); got != want.Bytes()+ix.Matrix().PairBytes() {
					t.Fatalf("seed %d: %d bytes reserved, want the rows' %d and one table's %d", seed, got, want.Bytes(), ix.Matrix().PairBytes())
				}
				// Indexed now: nothing is built twice.
				if again, err := BuildIndex(ix, tax, minCount, Options{Mem: budget}); again != nil || err != nil {
					t.Fatalf("seed %d: an Indexed database was indexed again (%v, %v)", seed, again, err)
				}
				ix.Release()
				if budget.InUse() != 0 {
					t.Fatalf("seed %d: %d bytes reserved after Release", seed, budget.InUse())
				}
				// Room for the rows only: the tables are declined, and there is
				// nothing to read pairs from.
				if large.Len() == 0 {
					continue
				}
				budget = govern.NewBudget(want.Bytes())
				ix, err = BuildIndex(db, tax, minCount, Options{Parallelism: workers, Mem: budget})
				if err != nil || ix.Matrix() == nil || ix.Matrix().PairCounts(func(a, b item.Item, n int) {
					t.Fatalf("seed %d: a pair {%d %d} read without a table", seed, a, b)
				}) {
					t.Fatalf("seed %d, %d workers: tables declined, yet BuildIndex = (%v, %v) reads pairs", seed, workers, ix, err)
				}
				ix.Release()
			}
		}
	}
}

// TestBuildIndexDeclines: no taxonomy and BackendHashTree decline before any
// scan; a budget short of full-width rows yields the pass-1 half of the
// index after one scan — Singletons is answered, counting passes scan in
// windows — with nothing left reserved.
func TestBuildIndexDeclines(t *testing.T) {
	tax, leaves := testTax(t, 16)
	ins := txdb.Instrument(leafDB(3, leaves, 300, 6))
	for name, build := range map[string]func() (*Index, error){
		"nil taxonomy": func() (*Index, error) { return BuildIndex(ins, nil, 1, Options{}) },
		"hash tree":    func() (*Index, error) { return BuildIndex(ins, tax, 1, Options{Backend: BackendHashTree}) },
	} {
		if ix, err := build(); ix != nil || err != nil || ins.Passes() != 0 {
			t.Fatalf("%s: (%v, %v) after %d scans, want a decline without scanning", name, ix, err, ins.Passes())
		}
	}

	universe := leaves.Union(tax.Categories())
	full := bitmat.EstimateBytes(300, universe.Len())
	for name, total := range map[string]int64{"a third of the rows": full / 3, "below the 64-transaction floor": 16} {
		ins.Reset()
		budget := govern.NewBudget(total)
		ix, err := BuildIndex(ins, tax, 1, Options{Mem: budget})
		if err != nil || ix == nil || ix.Matrix() != nil {
			t.Fatalf("%s: BuildIndex = (%v, %v), want an index without rows", name, ix, err)
		}
		if ins.Passes() != 1 || budget.InUse() != 0 {
			t.Fatalf("%s: %d scans, %d bytes reserved; want 1 and 0", name, ins.Passes(), budget.InUse())
		}
		opt := Options{Tax: tax, Mem: govern.NewBudget(full / 3)}
		if singles, err := Singletons(ix, opt); err != nil || &singles[0] != &ix.Singletons()[0] || ins.Passes() != 1 {
			t.Fatalf("%s: Singletons scanned again (err %v, %d scans)", name, err, ins.Passes())
		}
		groups := randomGroups(rand.New(rand.NewSource(4)), universe, 3)
		got, err := Multi(ix, groups, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := HashTreeEngine{}.Multi(ins.DB, groups, nil, Options{TransformInto: tax.ExtendInto})
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, name, got, want)
		if ins.Passes() != 2 || opt.Mem.InUse() != 0 {
			t.Fatalf("%s: windowed pass made %d scans and left %d bytes reserved", name, ins.Passes()-1, opt.Mem.InUse())
		}
		ix.Release()
	}
}

// TestBuildIndexFaultReleasesBudget tears the read in pass 1 and in the row
// fill: BuildIndex returns the scan's error and the budget is where it was.
// Then several builders index one Sharder at once, each with sharded pass-1
// workers, for the race detector.
func TestBuildIndexFaultReleasesBudget(t *testing.T) {
	tax, leaves := testTax(t, 16)
	db := leafDB(5, leaves, 200, 6)
	for name, hit := range map[string]int{"pass 1": 150, "fill": 350} {
		budget := govern.NewBudget(0)
		off := fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(hit))
		ix, err := BuildIndex(db, tax, 2, Options{Mem: budget})
		off()
		if ix != nil || !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: BuildIndex = (%v, %v), want the injected scan error", name, ix, err)
		}
		if budget.InUse() != 0 {
			t.Fatalf("%s: %d bytes still reserved", name, budget.InUse())
		}
	}

	want, err := BuildIndex(db, tax, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := govern.NewBudget(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := BuildIndex(db, tax, 2, Options{Parallelism: 4, Mem: budget})
			if err != nil {
				t.Error(err)
				return
			}
			defer ix.Release()
			for _, x := range want.Matrix().Items() {
				if !slices.Equal(ix.Matrix().Row(x), want.Matrix().Row(x)) || ix.Singletons()[x] != want.Singletons()[x] {
					t.Errorf("concurrent build: item %d differs from the sequential index", x)
					return
				}
			}
		}()
	}
	wg.Wait()
	if budget.InUse() != 0 {
		t.Fatalf("%d bytes still reserved after concurrent builds", budget.InUse())
	}
}

// missized is a Sharder whose shard `shard` yields `by` transactions more
// (the last one twice) or fewer than its range holds.
type missized struct {
	*txdb.MemDB
	shard, by int
}

func (d missized) ScanShard(shard, of int, fn func(txdb.Transaction) error) error {
	if shard != d.shard {
		return d.MemDB.ScanShard(shard, of, fn)
	}
	lo, hi := txdb.ShardRange(d.Count(), shard, of)
	txs := d.Transactions()[lo : hi+min(d.by, 0)]
	if d.by > 0 {
		txs = append(slices.Clone(txs), txs[len(txs)-1])
	}
	for _, tx := range txs {
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// TestBuildIndexFaultInShardedFill: a read torn in any worker of the sharded
// fill, and a shard that yields one transaction too many or too few, come
// back from BuildIndex as errors — never as an index that undercounts — with
// the budget where it was; and a budget that grants the rows but not the
// workers' tables yields rows without a table that count the same pairs.
func TestBuildIndexFaultInShardedFill(t *testing.T) {
	tax, leaves := testTax(t, 16)
	db := leafDB(5, leaves, 200, 6)
	const workers = 4
	for hit := 201; hit <= 400; hit += 37 { // hits 1–200 are pass 1's
		budget := govern.NewBudget(0)
		off := fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(hit))
		ix, err := BuildIndex(db, tax, 2, Options{Parallelism: workers, Mem: budget})
		off()
		if ix != nil || !errors.Is(err, fault.ErrInjected) || budget.InUse() != 0 {
			t.Fatalf("hit %d: BuildIndex = (%v, %v) with %d bytes reserved, want the injected scan error and none", hit, ix, err, budget.InUse())
		}
	}
	for shard := 0; shard < workers; shard++ {
		for _, by := range []int{-1, 1} {
			budget := govern.NewBudget(0)
			ix, err := BuildIndex(missized{db, shard, by}, tax, 2, Options{Parallelism: workers, Mem: budget})
			if ix != nil || err == nil || budget.InUse() != 0 {
				t.Fatalf("shard %d off by %d: BuildIndex = (%v, %v) with %d bytes reserved, want an error and none", shard, by, ix, err, budget.InUse())
			}
		}
	}

	want, err := BuildIndex(db, tax, 2, Options{Parallelism: workers})
	if err != nil || want.Matrix().PairBytes() == 0 {
		t.Fatalf("unbounded: BuildIndex = (%v, %v), want rows with a table", want, err)
	}
	items := want.Matrix().Items()
	var pairs []item.Itemset
	for i, a := range items {
		for _, b := range items[i+1:] {
			pairs = append(pairs, item.Itemset{a, b})
		}
	}
	wantPairs, err := want.Matrix().Counts(pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All four tables or none: three are not granted.
	budget := govern.NewBudget(want.Matrix().Bytes() + (workers-1)*want.Matrix().PairBytes())
	ix, err := BuildIndex(db, tax, 2, Options{Parallelism: workers, Mem: budget})
	if err != nil || ix.Matrix() == nil || ix.Matrix().PairBytes() != 0 || budget.InUse() != ix.Matrix().Bytes() {
		t.Fatalf("tables declined: BuildIndex = (%v, %v) with %d bytes reserved, want rows without a table", ix, err, budget.InUse())
	}
	if got, err := ix.Matrix().Counts(pairs, workers); err != nil || !slices.Equal(got, wantPairs) {
		t.Fatalf("tables declined: pairs counted %v (%v), with tables %v", got, err, wantPairs)
	}
	if ix.Release(); budget.InUse() != 0 {
		t.Fatalf("tables declined: %d bytes reserved after Release", budget.InUse())
	}
}

// BenchmarkBuildIndex indexes two of the benchmark's inputs — batch-wide's
// database at a tenth of its size, 20 000 Short transactions at 1 %, and
// batch-tall's, 5 000 Tall transactions at 3 % — with one worker and with
// two. Before anything is timed every cell of the pair table is held to
// AND+popcount of its two rows; pairs/op is the increments the second scan
// makes in place of those ANDs, pass1-ms/op the part of an op spent in the
// first scan (Index.Pass1).
func BenchmarkBuildIndex(b *testing.B) {
	for _, in := range []struct {
		name      string
		params    datagen.Params
		txns, pct int
	}{
		{"short", datagen.Short(), 20000, 1},
		{"tall", datagen.Tall(), 5000, 3},
	} {
		p := in.params
		p.NumTransactions, p.Seed = in.txns, 1
		tax, db, err := datagen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		minCount := db.Count() * in.pct / 100
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", in.name, workers), func(b *testing.B) {
				opt := Options{Parallelism: workers}
				ix, err := BuildIndex(db, tax, minCount, opt)
				if err != nil {
					b.Fatal(err)
				}
				rows, increments := ix.Matrix(), 0
				for i, x := range rows.Items() {
					for _, y := range rows.Items()[i+1:] {
						got, err := rows.Support(item.Itemset{x, y}, nil)
						if want := bitmat.AndPopCount(rows.Row(x), rows.Row(y)); err != nil || got != want {
							b.Fatalf("pair {%d %d}: the table says %d (%v), its rows %d", x, y, got, err, want)
						}
						increments += got
					}
				}
				if rows.PairBytes() == 0 || increments == 0 {
					b.Fatal("the index carries no pair table")
				}
				var pass1 time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ix, err := BuildIndex(db, tax, minCount, opt)
					if err != nil {
						b.Fatal(err)
					}
					pass1 += ix.Pass1()
				}
				b.ReportMetric(float64(increments), "pairs/op")
				b.ReportMetric(float64(pass1.Microseconds())/1e3/float64(b.N), "pass1-ms/op")
			})
		}
	}
}

// TestCarriedCountsAnswerOnlyTheTail grows one database through prefixes that
// end on, before and after word boundaries, builds rows over each and counts
// the same kind of passes over each through an Index that carries the counts
// of the one before. Whatever the passes do between one prefix and the next —
// come again unchanged, lose and gain candidates, come unsorted, come in
// another number — every count equals the hash tree's over that prefix, and
// the tally says which candidates were owed only the new transactions.
func TestCarriedCountsAnswerOnlyTheTail(t *testing.T) {
	tax, leaves := testTax(t, 16)
	all := leafDB(21, leaves, 700, 6)
	universe := leaves.Union(tax.Categories())
	r := rand.New(rand.NewSource(22))
	groups := randomGroups(r, universe, 3)
	for _, g := range groups {
		slices.SortFunc(g, item.Itemset.Compare)
	}
	mem := govern.NewBudget(0)
	carried := &Carried{}
	for step, n := range []int{1, 63, 64, 65, 128, 300, 300, 301, 700} {
		db := &txdb.MemDB{}
		for _, tx := range all.Transactions()[:n] {
			db.Append(tx)
		}
		rows, err := bitmat.FromDBTaxonomy(db, tax, universe)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(db, tax, nil, rows, carried, mem)
		// Each step's schedule is the last one's, disturbed one way.
		passes := [][][]item.Itemset{{groups[1]}, {groups[2]}, {groups[0], groups[1], groups[2]}}
		wantTail := -1
		switch step {
		case 0:
			wantTail = 0 // nothing carried yet
		case 1, 2, 7:
			wantTail = 2*(len(groups[1])+len(groups[2])) + len(groups[0])
		case 3: // a candidate leaves the first pass, and so skips a step
			passes[0] = [][]item.Itemset{groups[1][1:]}
			wantTail = 2*(len(groups[1])+len(groups[2])) + len(groups[0]) - 1
		case 4: // and is back: counted in full
			wantTail = 2*(len(groups[1])+len(groups[2])) + len(groups[0]) - 1
		case 5: // the middle pass does not happen: the last one meets its sets only
			passes = [][][]item.Itemset{passes[0], passes[2]}
			wantTail = len(groups[1]) + len(groups[2])
		case 6: // and happens again: the last pass has nothing to meet
			wantTail = len(groups[1]) + len(groups[2])
		case 8: // a pass out of order finds what the merge happens to reach, never a wrong count
			shuffled := slices.Clone(groups[2])
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			passes[1] = [][]item.Itemset{shuffled}
		}
		total := 0
		for p, pass := range passes {
			opt := Options{TransformInto: tax.ExtendInto, Tax: tax, Parallelism: 1 + 3*(p%2)}
			got, err := Multi(ix, pass, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := HashTreeEngine{}.Multi(db, pass, nil, Options{TransformInto: tax.ExtendInto})
			if err != nil {
				t.Fatal(err)
			}
			for g := range pass {
				total += len(pass[g])
				if !slices.Equal(got[g], want[g]) {
					t.Fatalf("step %d (n = %d), pass %d, group %d: carried %v, scanned %v", step, n, p, g, got[g], want[g])
				}
			}
		}
		tail, full, _, words := ix.Tally()
		if tail+full != total || wantTail >= 0 && tail != wantTail || words <= 0 {
			t.Fatalf("step %d (n = %d): %d from the tail and %d in full (%d words) of %d candidates, want %d from the tail", step, n, tail, full, words, total, wantTail)
		}
		before := carried.Bytes()
		carried = ix.TakeCarried()
		if carried.N != n || mem.InUse() != before+carried.Bytes() {
			t.Fatalf("step %d: took %+v with %d bytes in use (%d held before)", step, carried, mem.InUse(), before)
		}
		ix.Release() // nothing left to give back: what was taken stays reserved
		mem.Release(before)
		if mem.InUse() != carried.Bytes() {
			t.Fatalf("step %d: %d bytes in use for %d carried", step, mem.InUse(), carried.Bytes())
		}
	}

	// An index that carries nothing counts as its rows do and has nothing to
	// hand on; counts recorded over more transactions than the rows hold are
	// not used.
	db := all
	rows, err := bitmat.FromDBTaxonomy(db, tax, universe)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewIndex(db, tax, nil, rows, nil, mem)
	if got, err := plain.Counts(groups[2], 2); err != nil {
		t.Fatal(err)
	} else if want, _ := rows.Counts(groups[2], 1); !slices.Equal(got, want) || plain.TakeCarried().Bytes() != 0 {
		t.Fatalf("an index without counts: %v, want %v", got, want)
	}
	ahead := NewIndex(db, tax, nil, rows, &Carried{N: db.Count() + 1, passes: carried.passes}, mem)
	if _, err := ahead.Counts(groups[1], 1); err != nil {
		t.Fatal(err)
	} else if tail, _, _, _ := ahead.Tally(); tail != 0 {
		t.Fatalf("%d counts from beyond the rows' end were used", tail)
	}
	ahead.Release()
}

// TestCarriedCountsFaultAndBudget: a pass that fails — a candidate names an
// item without a row — or a budget that stops admitting the counts leaves the
// index nothing to hand on and nothing reserved, and every count it did
// return is still the rows' own.
func TestCarriedCountsFaultAndBudget(t *testing.T) {
	tax, leaves := testTax(t, 12)
	db := leafDB(23, leaves, 200, 5)
	universe := leaves.Union(tax.Categories())
	rows, err := bitmat.FromDBTaxonomy(db, tax, universe)
	if err != nil {
		t.Fatal(err)
	}
	groups := randomGroups(rand.New(rand.NewSource(24)), universe, 3)

	mem := govern.NewBudget(0)
	ix := NewIndex(db, tax, nil, rows, &Carried{}, mem)
	if _, err := ix.Counts(groups[1], 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Counts(append(slices.Clone(groups[2]), item.New(0, 1, 9999)), 2); err == nil {
		t.Fatal("a candidate without rows counted")
	}
	if mem.InUse() == 0 {
		t.Fatal("the first pass reserved nothing")
	}
	if ix.Release(); mem.InUse() != 0 {
		t.Fatalf("%d bytes reserved after Release", mem.InUse())
	}

	first := 4*int64(2*len(groups[1])) + 5*int64(len(groups[1]))
	mem = govern.NewBudget(first + 1) // room for the first pass, not the second
	ix = NewIndex(db, tax, nil, rows, &Carried{}, mem)
	for _, g := range [][]item.Itemset{groups[1], groups[2], groups[1]} {
		got, err := ix.Counts(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if wantG, _ := rows.Counts(g, 1); !slices.Equal(got, wantG) {
			t.Fatalf("counts under a refusing budget: %v, want %v", got, wantG)
		}
	}
	if c := ix.TakeCarried(); c.N != 0 || c.Bytes() != 0 || mem.InUse() != 0 || mem.Denials() != 1 {
		t.Fatalf("after a refusal: %d bytes in use, %d denials", mem.InUse(), mem.Denials())
	}
}

// TestPairTableCarriesNoPairs: over rows that carry a pair table, an Index
// that carries counts reads every 2-itemset off the table, carried over or
// not, records none of them for the next mine, and tallies them apart; the
// 3-itemsets beside them are carried and owed only the tail as before.
func TestPairTableCarriesNoPairs(t *testing.T) {
	tax, leaves := testTax(t, 16)
	all := leafDB(23, leaves, 300, 6)
	universe := leaves.Union(tax.Categories())
	groups := randomGroups(rand.New(rand.NewSource(24)), universe, 3)
	for _, g := range groups {
		slices.SortFunc(g, item.Itemset.Compare)
	}
	pass := [][]item.Itemset{groups[1], groups[2]}
	carried := &Carried{}
	for step, n := range []int{100, 300} {
		db := &txdb.MemDB{}
		for _, tx := range all.Transactions()[:n] {
			db.Append(tx)
		}
		rows := bitmat.New(universe, n)
		rows.CountPairs()
		if err := rows.FillWindows(db, tax, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(db, tax, nil, rows, carried, govern.NewBudget(0))
		got, err := Multi(ix, pass, Options{Tax: tax, TransformInto: tax.ExtendInto})
		if err != nil {
			t.Fatal(err)
		}
		want, err := HashTreeEngine{}.Multi(db, pass, nil, Options{TransformInto: tax.ExtendInto})
		if err != nil {
			t.Fatal(err)
		}
		for g := range pass {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("n = %d, group %d: %v, scanned %v", n, g, got[g], want[g])
			}
		}
		tail, full, pairs, _ := ix.Tally()
		if pairs != len(groups[1]) || tail+full != len(groups[2]) || tail != step*len(groups[2]) {
			t.Fatalf("n = %d: %d from the tail, %d in full, %d off the table; %d pairs and %d triples", n, tail, full, pairs, len(groups[1]), len(groups[2]))
		}
		carried = ix.TakeCarried()
		if size := int64(4*3+5) * int64(len(groups[2])); carried.Bytes() != size {
			t.Fatalf("n = %d: %d bytes carried, want %d for the triples alone", n, carried.Bytes(), size)
		}
	}
}

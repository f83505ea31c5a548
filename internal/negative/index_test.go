package negative

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/fault"
	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// scanOnly hides a database's ScanShard.
type scanOnly struct{ txdb.DB }

// randomMarket draws a forest — several roots, single-child categories,
// chains — and a database over it in which three leaves are bought together
// often enough for large 3-itemsets, the other leaves rarely enough that
// some are small while their categories are large, a few baskets name a
// category or an item the taxonomy does not know, some are empty, and the
// transaction count is not a multiple of 64 — in every thirteenth market
// below 128, so that of several workers only two have a shard to fill.
func randomMarket(t testing.TB, seed int64) (*taxonomy.Taxonomy, *txdb.MemDB) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := taxonomy.NewBuilder()
	nodes := 12 + r.Intn(25)
	for i := 0; i < nodes; i++ {
		if name := "n" + strconv.Itoa(i); i < 3 || r.Intn(8) == 0 {
			b.Node(name)
		} else {
			b.Link("n"+strconv.Itoa(r.Intn(i)), name)
		}
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	leaves := tax.Leaves()
	db := &txdb.MemDB{}
	n := 64*(4+r.Intn(5)) + 1 + r.Intn(63)
	if seed%13 == 0 {
		n = 65 + n%63
	}
	for i := 0; i < n; i++ {
		var raw []item.Item
		switch r.Intn(10) {
		case 0: // empty
		case 1, 2, 3:
			raw = append(raw, leaves[0], leaves[len(leaves)/2], leaves[len(leaves)-1])
			fallthrough
		default:
			for j := r.Intn(4); j > 0; j-- {
				raw = append(raw, leaves[r.Intn(len(leaves))])
			}
			if r.Intn(12) == 0 {
				raw = append(raw, item.Item(r.Intn(nodes+3)))
			}
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return tax, db
}

// TestIndexedWindowedAndHashTreeMinesAgree is the spec of "same counts":
// the mine that indexes the database with two scans, the mine whose budget
// forces every pass through several windows, the mine whose budget grants
// the rows but not the pair tables, and the hash-tree mine decide the same
// large itemsets, negatives and rules — under both drivers,
// with one worker or several (counting, and generating candidates), over a
// Sharder in memory, one on disk, a throttled one and a database that can only
// be scanned whole.
func TestIndexedWindowedAndHashTreeMinesAgree(t *testing.T) {
	var triples, smallLeafLargeCategory, negatives int
	for seed := int64(1); seed <= 13; seed++ {
		tax, mem := randomMarket(t, seed)
		path := filepath.Join(t.TempDir(), "db.nmtx")
		if err := txdb.WriteFile(path, mem); err != nil {
			t.Fatal(err)
		}
		file, err := txdb.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hash := Options{MinSupport: 0.12, MinRI: 0.3}
		hash.Count.Backend, hash.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
		want, err := Mine(mem, tax, hash)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Large.Levels) >= 3 {
			triples++
		}
		if len(want.Negatives) > 0 {
			negatives++
		}
		for _, leaf := range tax.Leaves() {
			if p := tax.Parent(leaf); p != item.None && !want.Large.Table.Contains(item.Itemset{leaf}) && want.Large.Table.Contains(item.Itemset{p}) {
				smallLeafLargeCategory++
				break
			}
		}
		// Rows for a third of the transactions, rounded down to whole words:
		// the C2 pass, which names every large 1-item, needs ≥ 3 windows (two
		// in the small market). Rows for all of them: the index, without the
		// pair tables.
		third := bitmat.EstimateBytes(max(mem.Count()/3/64*64, 64), len(want.Large.Levels[0]))
		rows := bitmat.EstimateBytes(mem.Count(), len(want.Large.Levels[0]))

		for name, base := range map[string]txdb.DB{"mem": mem, "file": file, "throttled": txdb.Throttle(mem, 0), "scan-only": file} {
			ins := txdb.Instrument(base)
			var db txdb.DB = ins
			if name == "scan-only" {
				db = scanOnly{ins}
			}
			for _, alg := range []Algorithm{Improved, Naive} {
				for _, workers := range []int{1, 2, 5} {
					opt := Options{MinSupport: 0.12, MinRI: 0.3, Algorithm: alg}
					opt.Count.Parallelism, opt.Gen.Count.Parallelism = workers, workers
					what := fmt.Sprintf("seed %d %s %v workers %d", seed, name, alg, workers)

					ins.Reset()
					got, err := Mine(db, tax, opt)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameMined(t, what+" indexed", got, want)
					if scans := ins.Passes() + ins.ShardScans()/workers; scans != 2 {
						t.Fatalf("%s: %d scans from the index, want 2", what, scans)
					}

					budget := govern.NewBudget(third)
					opt.Count.Mem, opt.Gen.Count.Mem = budget, budget
					got, err = Mine(db, tax, opt)
					if err != nil {
						t.Fatalf("%s windowed: %v", what, err)
					}
					sameMined(t, what+" windowed", got, want)
					if hw := budget.HighWater(); hw == 0 || hw > third || budget.InUse() != 0 {
						t.Fatalf("%s windowed: high water %d of %d, %d still reserved", what, hw, third, budget.InUse())
					}

					budget = govern.NewBudget(rows)
					opt.Count.Mem, opt.Gen.Count.Mem = budget, budget
					ins.Reset()
					got, err = Mine(db, tax, opt)
					if err != nil {
						t.Fatalf("%s rows without tables: %v", what, err)
					}
					sameMined(t, what+" rows without tables", got, want)
					if scans := ins.Passes() + ins.ShardScans()/workers; scans != 2 || budget.HighWater() != rows || budget.InUse() != 0 {
						t.Fatalf("%s rows without tables: %d scans, high water %d of %d, %d still reserved", what, scans, budget.HighWater(), rows, budget.InUse())
					}
				}
			}
		}
		// The hash tree again, under both drivers with one worker and with
		// four — counting, and generating candidates.
		for _, alg := range []Algorithm{Improved, Naive} {
			for _, workers := range []int{1, 4} {
				hash.Algorithm = alg
				hash.Count.Parallelism, hash.Gen.Count.Parallelism = workers, workers
				for name, db := range map[string]txdb.DB{"mem": mem, "scan-only": scanOnly{mem}} {
					got, err := Mine(db, tax, hash)
					if err != nil {
						t.Fatal(err)
					}
					sameMined(t, fmt.Sprintf("seed %d hash-tree %s %v workers %d", seed, name, alg, workers), got, want)
				}
			}
		}
	}
	if triples < 6 || smallLeafLargeCategory < 6 || negatives < 6 {
		t.Fatalf("of 13 markets %d reached 3 levels, %d had a small leaf under a large category, %d a negative itemset: the generator lost its corners",
			triples, smallLeafLargeCategory, negatives)
	}

	// The empty database: every path agrees there is nothing.
	tax, _ := randomMarket(t, 1)
	for _, backend := range []count.Backend{count.BackendAuto, count.BackendHashTree} {
		opt := Options{MinSupport: 0.1, MinRI: 0.3}
		opt.Count.Backend, opt.Gen.Count.Backend = backend, backend
		res, err := Mine(&txdb.MemDB{}, tax, opt)
		if err != nil || len(res.Large.Levels) != 0 || len(res.Negatives) != 0 || len(res.Rules) != 0 {
			t.Fatalf("empty database on %v: %+v, %v", backend, res, err)
		}
	}
}

// TestIndexFaultAndBudgetHygiene: a read torn in pass 1 or in the row fill —
// in the one scanner of a database that cannot shard, in any worker of the
// sharded fill — comes back from Mine and gen.Mine as the scan's error, and
// on every path — success, error, pair tables declined, rows declined, index
// declined — the budget ends where it started. Then several mines index one
// Sharder at once, for the race detector.
func TestIndexFaultAndBudgetHygiene(t *testing.T) {
	tax, db, opt := threeLevels(t)
	opt.Count.Parallelism, opt.Gen.Count.Parallelism = 4, 4
	const held = 1000 // somebody else's reservation
	budgeted := func(total int64) *govern.Budget {
		budget := govern.NewBudget(total)
		if err := budget.Reserve(held); err != nil {
			t.Fatal(err)
		}
		opt.Count.Mem, opt.Gen.Count.Mem = budget, budget
		return budget
	}
	budget := budgeted(0)
	free, err := Mine(db, tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := bitmat.EstimateBytes(db.Count(), len(free.Large.Levels[0]))
	mines := map[string]func(txdb.DB) (*Result, error){
		"Improved": func(db txdb.DB) (*Result, error) { return Mine(db, tax, opt) },
		"Naive": func(db txdb.DB) (*Result, error) {
			naive := opt
			naive.Algorithm = Naive
			return Mine(db, tax, naive)
		},
		"gen.Mine": func(db txdb.DB) (*Result, error) {
			large, err := gen.Mine(db, tax, gen.Options{MinSupport: opt.MinSupport, Count: opt.Gen.Count})
			return &Result{Large: large, Negatives: free.Negatives, Rules: free.Rules}, err
		},
	}
	for name, mine := range mines {
		// scanOnly: one scanner, so hit k is transaction k of pass ⌈k/100⌉.
		// Sharded, hits 101–200 are the fill's, whichever worker takes them.
		for pass, tear := range map[string]struct {
			db  txdb.DB
			hit int
		}{
			"pass 1": {scanOnly{db}, 60}, "the fill": {scanOnly{db}, 160},
			"the sharded fill, early": {db, 103}, "the sharded fill, late": {db, 197},
		} {
			off := fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(tear.hit))
			_, err := mine(tear.db)
			off()
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s, read torn in %s: err = %v, want the injected error", name, pass, err)
			}
			if budget.InUse() != held {
				t.Fatalf("%s, read torn in %s: %d bytes reserved, want %d", name, pass, budget.InUse(), held)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := mine(db); err != nil {
					t.Errorf("%s, concurrent: %v", name, err)
				}
			}()
		}
		wg.Wait()
		if budget.InUse() != held {
			t.Fatalf("%s: %d bytes reserved after success, want %d", name, budget.InUse(), held)
		}
		for declined, total := range map[string]int64{"pair tables": held + rows, "rows": held + rows - 1} {
			tight := budgeted(total)
			got, err := mine(db)
			if err != nil {
				t.Fatalf("%s, %s declined: %v", name, declined, err)
			}
			sameMined(t, name+", "+declined+" declined", got, free)
			if tight.InUse() != held {
				t.Fatalf("%s, %s declined: %d bytes reserved, want %d", name, declined, tight.InUse(), held)
			}
		}
		budget = budgeted(0)
	}
	// Declined: the hash tree reserves its trees, not rows, and returns them.
	opt.Count.Backend, opt.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
	if _, err := Mine(db, tax, opt); err != nil || budget.InUse() != held {
		t.Fatalf("declined: err %v, %d bytes reserved, want %d", err, budget.InUse(), held)
	}
}

// BenchmarkMineWide is the benchmark's batch-wide mine at a tenth of its
// size — 20 000 Short transactions at 1 % — three ways: from the index, in
// windows under a budget too small for it, and on the hash tree. The three
// must decide the same thing before anything is timed; scans/op is what the
// index is for.
func BenchmarkMineWide(b *testing.B) {
	p := datagen.Short()
	p.NumTransactions, p.Seed = 20000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	base := Options{MinSupport: 0.01, MinRI: 0.5}
	base.Count.Parallelism, base.Gen.Count.Parallelism = 2, 2
	hash := base
	hash.Count.Backend, hash.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
	want, err := Mine(db, tax, hash)
	if err != nil {
		b.Fatal(err)
	}
	windows := base // rows for half the transactions: ≥ 2 windows
	windows.Count.Mem = govern.NewBudget(bitmat.EstimateBytes(db.Count()/2/64*64, len(want.Large.Levels[0])))
	windows.Gen.Count.Mem = windows.Count.Mem
	for _, bc := range []struct {
		name string
		opt  Options
	}{{"index", base}, {"windows", windows}, {"hashtree", hash}} {
		b.Run(bc.name, func(b *testing.B) {
			ins := txdb.Instrument(db)
			got, err := Mine(ins, tax, bc.opt)
			if err != nil {
				b.Fatal(err)
			}
			sameMined(b, bc.name, got, want)
			ins.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(ins, tax, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ins.Passes()+ins.ShardScans()/2)/float64(b.N), "scans/op")
		})
	}
}

// BenchmarkMineTall is the benchmark's batch-tall mine — 5 000 Tall
// transactions at 3 % / 0.3, Improved over Cumulate on the auto backend with a
// worker per CPU — where candidate generation and the steps around it, not
// the scans, are the time. The Naive driver must decide the same thing before
// anything is timed.
func BenchmarkMineTall(b *testing.B) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 5000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{MinSupport: 0.03, MinRI: 0.3, Algorithm: Improved}
	opt.Count.Parallelism, opt.Gen.Count.Parallelism = runtime.NumCPU(), runtime.NumCPU()
	naive := opt
	naive.Algorithm = Naive
	want, err := Mine(db, tax, naive)
	if err != nil {
		b.Fatal(err)
	}
	got, err := Mine(db, tax, opt)
	if err != nil {
		b.Fatal(err)
	}
	sameMined(b, "improved vs naive", got, want)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, tax, opt); err != nil {
			b.Fatal(err)
		}
	}
}

var rulesSink []Rule

// BenchmarkGenerateRules times rule generation alone — every rule of the
// negative itemsets of 5 000 Tall transactions at 1 % / 0.5, the low end of the
// paper's Figure 6 — over the mine's stage-1 table. The rules must be the
// ones Mine returned before anything is timed.
func BenchmarkGenerateRules(b *testing.B) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 5000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{MinSupport: 0.01, MinRI: 0.5}
	opt.Count.Parallelism, opt.Gen.Count.Parallelism = runtime.NumCPU(), runtime.NumCPU()
	res, err := Mine(db, tax, opt)
	if err != nil {
		b.Fatal(err)
	}
	got := *res
	got.Rules = generateRules(res.Negatives, res.Large.Table, opt.MinRI)
	sameMined(b, "generateRules vs Mine", &got, res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rulesSink = generateRules(res.Negatives, res.Large.Table, opt.MinRI)
	}
	b.ReportMetric(float64(len(res.Rules)), "rules")
}

// TestIndexedMineCallsNoTransform: a mine over an indexed database calls no
// counting transform — so none builds Cumulate's item filter, which a
// transform builds on its first call — and the same mine on the hash tree
// calls them and decides the same. The negative pass's transforms are counted
// call by call, through MineWithCounts over the same CountFunc Mine uses; the
// level passes' transforms only ever see a transaction a scan delivers, so
// for them the scans are the count.
func TestIndexedMineCallsNoTransform(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tax, mem := randomMarket(t, seed)
		ins := txdb.Instrument(mem)
		opt := Options{MinSupport: 0.12, MinRI: 0.3, Gen: gen.Options{MinSupport: 0.12}}
		ix, err := count.BuildIndex(ins, tax, apriori.MinCount(opt.MinSupport, mem.Count()), opt.Gen.Count)
		if err != nil || ix == nil || ix.Matrix() == nil {
			t.Fatalf("seed %d: BuildIndex = %v, %v", seed, ix, err)
		}
		hash := opt
		hash.Count.Backend, hash.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
		var mined [2]*Result
		for i, c := range []struct {
			name string
			db   txdb.DB
			opt  Options
		}{{"indexed", ix, opt}, {"hash tree", ins, hash}} {
			what := fmt.Sprintf("seed %d %s", seed, c.name)
			ins.Reset()
			res, err := Mine(c.db, tax, c.opt)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			scans := ins.Passes()
			large, err := gen.Mine(c.db, tax, c.opt.Gen)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			var calls atomic.Int64
			countFn := func(groups [][]item.Itemset, transforms []count.TransformInto) ([][]int, error) {
				counted := make([]count.TransformInto, len(transforms))
				for gi, tr := range transforms {
					counted[gi] = func(dst []item.Item, s item.Itemset) item.Itemset {
						calls.Add(1)
						return tr(dst, s)
					}
				}
				return defaultCount(c.db, tax, c.opt)(groups, counted)
			}
			again, err := MineWithCounts(large, tax, c.opt, countFn)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameMined(t, what+" through MineWithCounts", again, res)
			if indexed := c.db == ix; indexed && (scans != 0 || calls.Load() != 0) || !indexed && (scans == 0 || calls.Load() == 0) {
				t.Fatalf("%s: %d scans, %d negative-pass transform calls", what, scans, calls.Load())
			}
			mined[i] = res
		}
		sameMined(t, fmt.Sprintf("seed %d indexed vs hash tree", seed), mined[0], mined[1])
		ix.Release()
	}
}

// TestNegativePassHandsOneSortedSlice: the negative pass hands counting, per
// batch, its candidates as one slice sorted by size, then set, each group one
// size and a run of that slice whose capacity reaches the batch's end — what
// count.flatten takes without a copy — and CandidatesBySize is the groups'
// sizes summed; under any MaxCandidates the rules are the same.
func TestNegativePassHandsOneSortedSlice(t *testing.T) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 2000, 3
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MinSupport: 0.04, MinRI: 0.3, Gen: gen.Options{MinSupport: 0.04}}
	large, err := gen.Mine(db, tax, opt.Gen)
	if err != nil {
		t.Fatal(err)
	}
	var want *Result
	for _, batch := range []int{0, 1000, 7} {
		opt.MaxCandidates = batch
		counted, passes := map[int]int{}, 0
		countFn := func(groups [][]item.Itemset, transforms []count.TransformInto) ([][]int, error) {
			passes++
			total := 0
			for _, g := range groups {
				total += len(g)
			}
			if len(groups) == 0 || cap(groups[0]) < total {
				t.Fatalf("batch %d: %d groups, the first's capacity %d for %d candidates", batch, len(groups), cap(groups[0]), total)
			}
			whole, at := groups[0][:total], 0
			for gi, g := range groups {
				if len(g) == 0 || &g[0] != &whole[at] || gi > 0 && len(g[0]) <= len(groups[gi-1][0]) {
					t.Fatalf("batch %d: group %d is not the next run of one slice, by size", batch, gi)
				}
				for j, s := range g {
					if len(s) != len(g[0]) || j > 0 && g[j-1].Compare(s) >= 0 {
						t.Fatalf("batch %d: group %d is not one size sorted by set at %d", batch, gi, j)
					}
				}
				counted[len(g[0])] += len(g)
				at += len(g)
			}
			return defaultCount(db, tax, opt)(groups, transforms)
		}
		res, err := MineWithCounts(large, tax, opt, countFn)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(counted, res.CandidatesBySize) || res.TotalCandidates() < 1000 {
			t.Fatalf("batch %d: counted %v, CandidatesBySize %v", batch, counted, res.CandidatesBySize)
		}
		if batch == 7 && passes != (res.TotalCandidates()+6)/7 {
			t.Fatalf("batch 7: %d passes for %d candidates", passes, res.TotalCandidates())
		}
		if want == nil {
			want = res
		}
		sameMined(t, fmt.Sprintf("batch %d", batch), res, want)
	}
}

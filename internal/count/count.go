// Package count is the support-counting engine shared by every mining
// algorithm in the library (Apriori, the generalized miners, the
// incremental refresh and the negative-itemset pass). Counting runs through
// a pluggable Engine: the vertical TID-bitmap matrix of internal/bitmat
// (AND+popcount per candidate, over as wide a window of transactions as the
// memory budget grants) or the Agrawal–Srikant hash tree (per-transaction
// subset probing, any transform). Options.Backend selects the engine; the
// default is documented on EngineFor. A pass is a scan of the database unless
// the database is Indexed: a level-wise mine takes BuildIndex of its input —
// two scans, the second of which also counts every pair of large 1-items into
// a table — and counts every pass from the index. Level 2 costs no counting
// at all: gen.Stepper reads it off that table (bitmat.Matrix.PairCounts) and
// makes no pass, wherever the index carries one.
package count

import (
	"fmt"
	"math"
	"sync"

	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Options controls a counting pass.
type Options struct {
	// Parallelism is the number of concurrent workers. Values < 2, or a
	// database that cannot shard (txdb.Sharder), select a single sequential
	// scan wherever a scan would be sharded over them: the hash-tree engine's
	// passes, Singletons and BuildIndex's row fill. The bitmap engine's own
	// window fill is one sequential scan; it shards the candidates of each
	// window, and those counted from an index, across this many workers.
	// negative's candidate generation reads the same number (from
	// negative.Options.Count) for the workers that walk the large itemsets.
	Parallelism int
	// TransformInto, if non-nil, maps each transaction's itemset before
	// counting (the Cumulate ancestor extension, a filter, ...); engines
	// pass a reusable per-worker buffer as dst. It must be safe for
	// concurrent calls when Parallelism > 1.
	TransformInto TransformInto
	// Backend selects the counting engine; the zero value is BackendAuto.
	Backend Backend
	// Mem, if non-nil, is the process-wide memory ledger every engine
	// reserves its dominant allocation against before making it: the bitmap
	// engine its window of rows, which it narrows to what the ledger grants
	// (floor: 64 transactions), the hash-tree engine its trees and
	// per-worker counters. A floor that does not fit surfaces as an error
	// wrapping govern.ErrOverBudget; no pass changes engine under pressure.
	// Nil means unbounded.
	Mem *govern.Budget
	// Tax, if non-nil, declares that the installed transforms (shared or
	// per-group) are taxonomy ancestor extensions — possibly filtered down
	// to candidate items — under this taxonomy. The declaration lets the
	// bitmap engine materialize ancestor-closure rows directly and skip the
	// transforms; the hash-tree engine ignores it. Setting Tax alongside a
	// transform that is not such an extension is a caller bug.
	Tax *taxonomy.Taxonomy
}

// Candidates counts, for every candidate (all of equal size), the number of
// transactions in db whose (transformed) itemset contains it. The result is
// indexed like cands.
func Candidates(db txdb.DB, cands []item.Itemset, opt Options) ([]int, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	res, err := Multi(db, [][]item.Itemset{cands}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Singletons counts every distinct item appearing in db's (transformed)
// transactions: the result is indexed by item id, and an id past its end was
// never seen. Unlike Candidates it needs no candidate list — it is the L1
// pass of every Apriori-family algorithm — and for the same reason it never
// uses the bitmap engine, which needs the item universe up front. Each
// worker counts into one slice of cells of its own, indexed by item id and
// summed at the end: a cell holds its count and the worker's position of the
// last transaction that counted it, so a node reached twice in one
// transaction — an item and a category, two items under one ancestor — is
// counted once, by arithmetic rather than a branch. Under Options.Tax — the
// declaration that the transform is the full ancestor extension — the
// extension is not built: every item and every node on its ancestor list
// goes to its cell, so nothing is materialised or sorted. An Indexed
// database declared under Options.Tax already knows the answer and is not
// scanned. A database of more than math.MaxInt32 transactions is an error,
// as it is for the pair table (bitmat.Matrix.CountPairs).
func Singletons(db txdb.DB, opt Options) ([]int, error) {
	if ix := indexOf(db, opt.Tax); ix != nil {
		return ix.Singletons(), nil
	}
	if n := db.Count(); n > math.MaxInt32 {
		return nil, fmt.Errorf("count: %d transactions, more than pass 1's 32-bit counters hold", n)
	}
	sharder, workers := shardWorkers(db, opt)
	cells := make([][]cell, workers)
	errs := make([]error, workers)
	counter := func(w int) func(txdb.Transaction) error {
		buf := make([]item.Item, 0, 64)
		var st uint32
		if opt.Tax != nil {
			cells[w] = make([]cell, opt.Tax.Size())
		}
		return func(tx txdb.Transaction) error {
			st++
			s := tx.Items
			if opt.Tax == nil {
				s, buf = opt.Apply(buf, s)
			}
			c := cells[w]
			for _, x := range s {
				if int(x) >= len(c) {
					c = append(c, make([]cell, int(x)+1-len(c))...)
					cells[w] = c
				}
				c[x].tally(st)
				if opt.Tax == nil {
					continue
				}
				for _, a := range opt.Tax.AncestorsOf(x) {
					c[a].tally(st)
				}
			}
			return nil
		}
	}
	if workers == 1 {
		errs[0] = db.Scan(counter(0))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := sharder.ScanShard(w, workers, counter(w)); err != nil {
					errs[w] = fmt.Errorf("count: worker %d: %w", w, err)
				}
			}(w)
		}
		wg.Wait()
	}
	var total []int
	for w, err := range errs {
		if err != nil {
			return nil, err
		}
		if len(cells[w]) > len(total) {
			total = append(total, make([]int, len(cells[w])-len(total))...)
		}
		for x, c := range cells[w] {
			total[x] += int(c.count)
		}
	}
	for len(total) > 0 && total[len(total)-1] == 0 {
		total = total[:len(total)-1] // cells the taxonomy sized, never counted
	}
	return total, nil
}

// shardWorkers returns how many workers scan db at once under opt — one
// unless Parallelism asks for more and db is a txdb.Sharder — and db as the
// Sharder they scan.
func shardWorkers(db txdb.DB, opt Options) (txdb.Sharder, int) {
	if sharder, ok := db.(txdb.Sharder); ok && opt.Parallelism > 1 {
		return sharder, opt.Parallelism
	}
	return nil, 1
}

// cell is one item's pass-1 counter in a worker's slice. stamp is the
// worker's position of the last transaction that counted the item, from 1, so
// the zero cell has counted none.
type cell struct{ stamp, count uint32 }

// tally counts the item for transaction st unless st already has: d | -d has
// its top bit set exactly when d is not zero.
func (c *cell) tally(st uint32) {
	d := c.stamp ^ st
	c.count += (d | -d) >> 31
	c.stamp = st
}

// Package count is the support-counting engine shared by every mining
// algorithm in the library (Apriori, the generalized miners, the
// incremental refresh and the negative-itemset pass). Counting runs through
// a pluggable Engine: the vertical TID-bitmap matrix of internal/bitmat
// (AND+popcount per candidate, over as wide a window of transactions as the
// memory budget grants) or the Agrawal–Srikant hash tree (per-transaction
// subset probing, any transform). Options.Backend selects the engine; the
// default is documented on EngineFor. A pass is a scan of the database unless
// the database is Indexed: a level-wise mine takes BuildIndex of its input —
// two scans, the second of which also counts every pair of large 1-items, so
// level 2 costs no counting at all — and counts every pass from the index.
package count

import (
	"fmt"
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
	// MaxLeaf is the hash tree leaf capacity (0 = default).
	MaxLeaf int
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
// uses the bitmap engine, which needs the item universe up front: each
// worker counts into a dense slice of its own, summed into the longest at
// the end. Under Options.Tax — the declaration that the
// transform is the full ancestor extension — the extension is not built:
// each item is walked up its ancestor list, nearest first and only as far as
// the first node this transaction already counted (whose own ancestors were
// counted with it), so nothing is materialised or sorted. An Indexed
// database declared under Options.Tax already knows the answer and is not
// scanned.
func Singletons(db txdb.DB, opt Options) ([]int, error) {
	if ix := indexOf(db, opt.Tax); ix != nil {
		return ix.Singletons(), nil
	}
	sharder, workers := shardWorkers(db, opt)
	dense := make([]onceCounter, workers)
	errs := make([]error, workers)
	counter := func(c *onceCounter) func(txdb.Transaction) error {
		buf := make([]item.Item, 0, 64)
		return func(tx txdb.Transaction) error {
			c.tx++
			s := tx.Items
			if opt.Tax == nil {
				s, buf = opt.Apply(buf, s)
			}
			for _, x := range s {
				if !c.add(x) || opt.Tax == nil {
					continue
				}
				for _, a := range opt.Tax.AncestorsOf(x) {
					if !c.add(a) {
						break
					}
				}
			}
			return nil
		}
	}
	if workers == 1 {
		errs[0] = db.Scan(counter(&dense[0]))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := sharder.ScanShard(w, workers, counter(&dense[w])); err != nil {
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
		c := dense[w].counts
		if len(c) > len(total) {
			total, c = c, total
		}
		for x, n := range c {
			total[x] += n
		}
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

// onceCounter counts items into a dense slice indexed by item id, each at
// most once per transaction: stamp[x] is the last transaction that counted x.
type onceCounter struct {
	counts, stamp []int
	tx            int // transactions begun; 0 is the "never counted" stamp
}

// add counts x unless the current transaction already has.
func (c *onceCounter) add(x item.Item) bool {
	if int(x) >= len(c.counts) {
		c.counts = append(c.counts, make([]int, int(x)+1-len(c.counts))...)
		c.stamp = append(c.stamp, make([]int, int(x)+1-len(c.stamp))...)
	}
	if c.stamp[x] == c.tx {
		return false
	}
	c.stamp[x] = c.tx
	c.counts[x]++
	return true
}

// Package gen implements generalized (taxonomy-aware) frequent-itemset
// mining after Srikant & Agrawal, "Mining Generalized Association Rules"
// (VLDB 1995): a transaction supports a category when it contains any of the
// category's descendant leaves, so large itemsets may mix leaves and
// categories from any level of the taxonomy.
//
// The miner is Cumulate, the paper's step 1 ("find all generalized large
// itemsets"): level-wise apriori-gen over a precomputed ancestor closure
// filtered to items that can actually affect the current candidates, with
// itemsets containing both an item and its ancestor pruned and transaction
// items that occur in no candidate dropped.
package gen

import (
	"fmt"
	"sync"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Algorithm names the stage-1 miner. Cumulate, its zero value, is the only
// one; the type exists only so that the benchmark harness, which sets
// Options.Algorithm explicitly, keeps compiling.
type Algorithm int

// Cumulate is the one generalized miner.
const Cumulate Algorithm = 0

// Options configures a generalized mining run.
type Options struct {
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// Algorithm must be Cumulate, the zero value.
	Algorithm Algorithm
	// MaxK caps the itemset size (0 = unlimited).
	MaxK int
	// Count holds pass-level options. Count.TransformInto must be nil — the
	// miner installs its own taxonomy transforms.
	Count count.Options
}

func (o Options) validate() error {
	if o.MinSupport <= 0 || o.MinSupport > 1 {
		return fmt.Errorf("gen: MinSupport = %v, want (0, 1]", o.MinSupport)
	}
	if o.Algorithm != Cumulate {
		return fmt.Errorf("gen: unknown algorithm %d", int(o.Algorithm))
	}
	if o.MaxK < 0 {
		return fmt.Errorf("gen: MaxK = %d, want ≥ 0", o.MaxK)
	}
	if o.Count.TransformInto != nil {
		return fmt.Errorf("gen: Count.TransformInto must be nil (set by the miner)")
	}
	return nil
}

// Mine finds all generalized large itemsets of db under tax. The result's
// Table and Levels include categories as well as leaf items.
func Mine(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*apriori.Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if tax == nil {
		return nil, fmt.Errorf("gen: nil taxonomy")
	}
	// Two scans index the database; every level then counts from rows.
	ix, err := count.BuildIndex(db, tax, apriori.MinCount(opt.MinSupport, db.Count()), opt.Count)
	if err != nil {
		return nil, err
	}
	if ix != nil {
		defer ix.Release()
		db = ix
	}
	s, err := NewStepper(db, tax, opt)
	if err != nil {
		return nil, err
	}
	for {
		lvl, err := s.Next()
		if err != nil {
			return nil, err
		}
		if lvl == nil {
			return s.Result(), nil
		}
	}
}

// installTransform configures cnt for a pass over the given candidate
// groups: Cumulate's ancestor extension as the shared transform, plus the
// taxonomy declaration that lets the bitmap backend build its
// ancestor-closure rows directly instead of applying the transform.
func installTransform(cnt *count.Options, tax *taxonomy.Taxonomy, groups ...[]item.Itemset) {
	cnt.TransformInto = ExtendTransform(tax, groups...)
	cnt.Tax = tax
}

// ExtendTransform returns Cumulate's counting transform: it extends each
// transaction with its precomputed ancestor closure, keeping only the items
// that occur in the given candidate groups. That filter is built on the
// first call, so a pass counted from an index builds none. Other packages
// use it to count taxonomy-aware candidates of their own — the negative
// miner counts its candidate negative itemsets with it. Callers should also
// set count.Options.Tax so the bitmap backend can honor the transform (it is
// an ancestor extension by construction).
func ExtendTransform(tax *taxonomy.Taxonomy, groups ...[]item.Itemset) count.TransformInto {
	filter := sync.OnceValue(func() map[item.Item]struct{} { return usedItems(groups...) })
	return func(dst []item.Item, s item.Itemset) item.Itemset {
		used := filter()
		for _, x := range s {
			if _, ok := used[x]; ok {
				dst = append(dst, x)
			}
			for _, a := range tax.AncestorsOf(x) {
				if _, ok := used[a]; ok {
					dst = append(dst, a)
				}
			}
		}
		return item.SortDedup(dst)
	}
}

// usedItems collects the distinct items over candidate groups.
func usedItems(groups ...[]item.Itemset) map[item.Item]struct{} {
	used := make(map[item.Item]struct{})
	for _, g := range groups {
		for _, c := range g {
			for _, x := range c {
				used[x] = struct{}{}
			}
		}
	}
	return used
}

// genLevel produces the generalized candidate k-itemsets from the sorted
// large (k-1)-itemsets: apriori-gen plus, at k = 2, removal of candidates
// pairing an item with its own ancestor (their support equals the item's
// support, so they are uninformative; pruning them here excludes all their
// supersets in later levels through the apriori prune step).
func genLevel(prev []item.Itemset, tax *taxonomy.Taxonomy, k int) []item.Itemset {
	cands := apriori.Gen(prev)
	if k != 2 {
		return cands
	}
	out := cands[:0]
	for _, c := range cands {
		if tax.IsAncestor(c[0], c[1]) || tax.IsAncestor(c[1], c[0]) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// mineL1 runs the first pass: exact counts of every item and category.
func mineL1(db txdb.DB, tax *taxonomy.Taxonomy, opt Options, res *apriori.Result) ([]item.Itemset, error) {
	cnt := opt.Count
	cnt.Tax = tax // count the full ancestor extension
	singles, err := count.Singletons(db, cnt)
	if err != nil {
		return nil, err
	}
	l1 := apriori.Level1(singles, res.MinCount)
	if len(l1) == 0 {
		return nil, nil
	}
	res.Levels = append(res.Levels, l1)
	sets := make([]item.Itemset, len(l1))
	for i, cs := range l1 {
		res.Table.Put(cs.Set, cs.Count)
		sets[i] = cs.Set
	}
	return sets, nil
}

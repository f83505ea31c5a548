// Package gen implements generalized (taxonomy-aware) frequent-itemset
// mining after Srikant & Agrawal, "Mining Generalized Association Rules"
// (VLDB 1995): a transaction supports a category when it contains any of the
// category's descendant leaves, so large itemsets may mix leaves and
// categories from any level of the taxonomy.
//
// Three algorithms are provided, matching the paper the library reproduces
// (its step 1, "find all generalized large itemsets", names exactly these):
//
//   - Basic: every pass extends each transaction with all its ancestors,
//     recomputed by parent-chain walks, and counts candidates against the
//     extended transaction.
//   - Cumulate: adds the published optimizations — a precomputed ancestor
//     closure filtered to items that can actually affect the current
//     candidates, pruning of itemsets containing both an item and its
//     ancestor, and dropping of transaction items that occur in no
//     candidate.
//   - EstMerge: estimates candidate supports on a random sample, counts
//     only the candidates expected (close to) large in the current pass,
//     and defers the rest into the next pass ("merging" two candidate sizes
//     into one scan). Estimation mistakes are healed by exact repair
//     passes, so the result is always exact — identical to Basic/Cumulate.
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

// Algorithm selects the generalized mining strategy.
type Algorithm int

const (
	// Basic is the unoptimized algorithm.
	Basic Algorithm = iota
	// Cumulate adds ancestor-closure precomputation and filtering.
	Cumulate
	// EstMerge adds sample-based candidate scheduling.
	EstMerge
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Basic:
		return "Basic"
	case Cumulate:
		return "Cumulate"
	case EstMerge:
		return "EstMerge"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a generalized mining run.
type Options struct {
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// Algorithm selects Basic, Cumulate or EstMerge (default Basic).
	Algorithm Algorithm
	// MaxK caps the itemset size (0 = unlimited).
	MaxK int
	// SampleSize is the EstMerge sample size (default 1000).
	SampleSize int
	// SampleSeed seeds EstMerge's reservoir sample.
	SampleSeed int64
	// Margin widens EstMerge's "expected large" band: candidates whose
	// estimated support is at least MinSupport·(1−Margin) are counted in
	// the current pass. Default 0.25.
	Margin float64
	// Count holds pass-level options. Count.TransformInto must be nil — the
	// algorithms install their own taxonomy transforms.
	Count count.Options
}

func (o Options) validate() error {
	if o.MinSupport <= 0 || o.MinSupport > 1 {
		return fmt.Errorf("gen: MinSupport = %v, want (0, 1]", o.MinSupport)
	}
	if o.MaxK < 0 {
		return fmt.Errorf("gen: MaxK = %d, want ≥ 0", o.MaxK)
	}
	if o.Count.TransformInto != nil {
		return fmt.Errorf("gen: Count.TransformInto must be nil (set by the algorithm)")
	}
	if o.Margin < 0 || o.Margin >= 1 {
		return fmt.Errorf("gen: Margin = %v, want [0, 1)", o.Margin)
	}
	if o.SampleSize < 0 {
		return fmt.Errorf("gen: SampleSize = %d, want ≥ 0", o.SampleSize)
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
	switch opt.Algorithm {
	case Basic, Cumulate:
		return mineLevelwise(db, tax, opt)
	case EstMerge:
		return mineEstMerge(db, tax, opt)
	default:
		return nil, fmt.Errorf("gen: unknown algorithm %d", int(opt.Algorithm))
	}
}

// basicTransform extends a transaction with all ancestors of its items,
// recomputing the closure by parent-chain walks (no precomputation — the
// Basic algorithm's behaviour).
func basicTransform(tax *taxonomy.Taxonomy) count.TransformInto {
	return func(dst []item.Item, s item.Itemset) item.Itemset {
		for _, x := range s {
			dst = append(dst, x)
			for p := tax.Parent(x); p != item.None; p = tax.Parent(p) {
				dst = append(dst, p)
			}
		}
		return item.SortDedup(dst)
	}
}

// cumulateTransform extends a transaction using the precomputed ancestor
// closure, keeping only items that occur in some current candidate. That
// filter is built on the first call: a pass counted from an index makes none.
func cumulateTransform(tax *taxonomy.Taxonomy, groups ...[]item.Itemset) count.TransformInto {
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

// transformFor returns the per-pass transaction transform for alg given the
// candidate groups about to be counted.
func transformFor(alg Algorithm, tax *taxonomy.Taxonomy, groups ...[]item.Itemset) count.TransformInto {
	if alg == Basic {
		return basicTransform(tax)
	}
	return cumulateTransform(tax, groups...)
}

// installTransform configures cnt for a pass over the given candidate
// groups: the algorithm's ancestor extension as the shared transform, plus
// the taxonomy declaration that lets the bitmap backend build its
// ancestor-closure rows directly instead of applying the transform.
func installTransform(cnt *count.Options, alg Algorithm, tax *taxonomy.Taxonomy, groups ...[]item.Itemset) {
	cnt.TransformInto = transformFor(alg, tax, groups...)
	cnt.Tax = tax
}

// ExtendTransform returns the counting transform that extends each
// transaction with its taxonomy ancestors, filtered down to the items that
// occur in the given candidate groups (Cumulate's optimization). Other
// packages use it to count taxonomy-aware candidates of their own — the
// negative miner counts its candidate negative itemsets with it. Callers
// should also set count.Options.Tax so the bitmap backend can honor the
// transform (it is an ancestor extension by construction).
func ExtendTransform(tax *taxonomy.Taxonomy, groups ...[]item.Itemset) count.TransformInto {
	return cumulateTransform(tax, groups...)
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

func mineLevelwise(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*apriori.Result, error) {
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

package negative

import (
	"fmt"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// CountFunc counts candidate itemset groups over the mined database.
// groups[gi] lists itemsets of one uniform size; transforms[gi] is the
// ancestor extension the counts must be taken under (see
// gen.ExtendTransform). The result is indexed [group][candidate], parallel
// to groups. The groups are consecutive runs of one slice sorted by size,
// then set, each with capacity to the end of the batch: a CountFunc reads
// them and must not append to or write into them.
//
// The count of an itemset under an ExtendTransform is independent of the
// other group members (a set's items are always inside the transform's used
// set), so an implementation is free to split a group — count some sets
// from a cache and the rest with a narrower transform — as long as every
// returned count equals a full-database count of that set.
type CountFunc func(groups [][]item.Itemset, transforms []count.TransformInto) ([][]int, error)

// MineWithCounts runs candidate generation, counting and rule generation
// (the paper's stages 2 and 3) against a stage-1 large-itemset result
// obtained elsewhere, delegating the candidate counting pass to countFn.
//
// The batch Improved driver is MineWithCounts applied to gen.Mine's result
// with a whole-database CountFunc; a caller with another source of exact
// counts (a cache, an instrumented pass) supplies its own. Equal stage-1
// results and exact counts yield byte-identical rule sets — every caller
// runs the same code from here on.
//
// large must be a generalized (Cumulate) stage-1 result over tax. Its L1 is
// then ancestor-closed — a parent's count is at least its child's — so
// restricting tax to the large nodes, the paper's compression, would re-root
// nothing and drop only nodes the generator skips for their missing support:
// candidate generation walks tax itself.
func MineWithCounts(large *apriori.Result, tax *taxonomy.Taxonomy, opt Options, countFn CountFunc) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if tax == nil {
		return nil, fmt.Errorf("negative: nil taxonomy")
	}
	if large == nil {
		return nil, fmt.Errorf("negative: nil stage-1 result")
	}
	if countFn == nil {
		return nil, fmt.Errorf("negative: nil CountFunc")
	}
	return mineStages23(large, tax, opt, countFn)
}

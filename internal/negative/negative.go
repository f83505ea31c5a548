// Package negative implements the paper's primary contribution: mining
// strong negative association rules X =/=> Y from a transaction database
// and an item taxonomy (Savasere, Omiecinski & Navathe, ICDE 1998).
//
// The pipeline has three stages (paper §2.1):
//
//  1. Find all generalized large itemsets (package gen).
//  2. Generate candidate negative itemsets from each large itemset by
//     swapping members for their taxonomy children (Cases 1 and 2) or
//     siblings (Case 3), assign each the expected support implied by the
//     uniformity assumption, and keep candidates whose expected support is
//     high enough to possibly yield a rule.
//  3. Count the candidates' actual supports; candidates whose actual
//     support falls at least MinSup·MinRI below expectation are negative
//     itemsets, from which rules are generated with an extension of
//     ap-genrules.
//
// Two drivers are provided: Naive interleaves stages per level (2n database
// passes) and Improved counts all candidate sizes in one final pass after
// compressing the taxonomy (n+1 passes) — the paper's two algorithms. A pass
// is a scan on the hash tree only: otherwise Mine first indexes the database
// with two scans (count.BuildIndex) and every pass of either driver counts
// from the index's rows.
package negative

import (
	"fmt"
	"time"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Algorithm selects the mining driver.
type Algorithm int

const (
	// Improved mines all large itemsets first, compresses the taxonomy,
	// and counts negative candidates of every size in a single extra pass
	// (n+1 passes total). This is the paper's "Better" algorithm and the
	// default.
	Improved Algorithm = iota
	// Naive alternates a large-itemset pass and a negative-candidate pass
	// per level (2n passes total).
	Naive
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case Improved:
		return "Better"
	case Naive:
		return "Naive"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures negative rule mining.
type Options struct {
	// MinSupport is the minimum relative support for large itemsets, rule
	// antecedents and rule consequents. Required, in (0, 1].
	MinSupport float64
	// MinRI is the minimum rule interest (paper §2): a rule X =/=> Y
	// qualifies when (E[sup(X∪Y)] − sup(X∪Y))/sup(X) ≥ MinRI. Required,
	// > 0.
	MinRI float64
	// Algorithm selects Improved (default) or Naive.
	Algorithm Algorithm
	// Gen configures stage 1 (the generalized large-itemset miner). Its
	// MinSupport field is overwritten with Options.MinSupport.
	Gen gen.Options
	// MaxCandidates caps how many negative candidates are counted per
	// database pass (the paper's §2.5 memory bound). 0 = unlimited (one
	// pass).
	MaxCandidates int
	// Filter selects the negative-itemset acceptance test; see Filter's
	// documentation. The default (DeviationFilter) follows the paper's §2
	// problem statement.
	Filter Filter
	// Substitutes is extra domain knowledge beyond the taxonomy (the
	// paper's §4.1 future work): each group lists items a customer treats
	// as interchangeable, even across taxonomy boundaries. Members of a
	// group act as additional "siblings" of each other during candidate
	// generation, with the same expected-support scaling. Every group
	// needs at least two items.
	Substitutes []item.Itemset
	// Count holds counting options for the negative-candidate passes.
	// Count.TransformInto must be nil.
	Count count.Options
}

func (o Options) validate() error {
	if !(o.MinSupport > 0 && o.MinSupport <= 1) {
		return fmt.Errorf("negative: MinSupport = %v, want (0, 1]", o.MinSupport)
	}
	if !(o.MinRI > 0) {
		return fmt.Errorf("negative: MinRI = %v, want > 0", o.MinRI)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("negative: MaxCandidates = %d, want ≥ 0", o.MaxCandidates)
	}
	if o.Count.TransformInto != nil {
		return fmt.Errorf("negative: Count.TransformInto must be nil (set internally)")
	}
	for i, g := range o.Substitutes {
		if g.Len() < 2 {
			return fmt.Errorf("negative: substitute group %d has %d items, want ≥ 2", i, g.Len())
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("negative: substitute group %d: %w", i, err)
		}
	}
	switch o.Algorithm {
	case Improved, Naive:
	default:
		return fmt.Errorf("negative: unknown algorithm %d", int(o.Algorithm))
	}
	switch o.Filter {
	case DeviationFilter, AbsoluteFilter:
	default:
		return fmt.Errorf("negative: unknown filter %d", int(o.Filter))
	}
	return nil
}

// Filter selects the test that turns a counted candidate into a negative
// itemset. The paper states it two slightly different ways, so both are
// offered.
type Filter int

const (
	// DeviationFilter accepts candidates whose actual support deviates at
	// least MinSup·MinRI below the expected support (paper §2: "finding
	// itemsets whose actual support deviates at least MinSup·MinRI from
	// their expected support"). This is the default and the test the rule
	// interest measure is derived from.
	DeviationFilter Filter = iota
	// AbsoluteFilter accepts candidates whose actual support count is
	// below MinSup·MinRI (the literal condition in the paper's Figure 3
	// pseudocode, `c.count < MinSup×MinRI`). It is looser on the expected
	// side (a candidate barely above the generation floor can qualify
	// with low actual support) and stricter on high-expectation
	// candidates with moderate support. Rule generation still applies the
	// RI ≥ MinRI test, so the final rule sets usually coincide.
	AbsoluteFilter
)

// String names the filter.
func (f Filter) String() string {
	if f == AbsoluteFilter {
		return "absolute"
	}
	return "deviation"
}

// Itemset is a confirmed negative itemset: actual support fell at least
// MinSup·MinRI below the expected support.
type Itemset struct {
	Set      item.Itemset
	Expected float64 // expected relative support (max over generation paths)
	Count    int     // actual absolute support count
	N        int     // transactions counted against
	// Source and Via record the provenance of the highest-expectation
	// generation path: the large itemset the candidate came from and
	// whether members were swapped for children or siblings.
	Source item.Itemset
	Via    Mode
}

// Actual returns the actual relative support.
func (n Itemset) Actual() float64 {
	if n.N == 0 {
		return 0
	}
	return float64(n.Count) / float64(n.N)
}

// Deviation returns expected − actual relative support.
func (n Itemset) Deviation() float64 { return n.Expected - n.Actual() }

// Rule is a negative association rule Antecedent =/=> Consequent.
type Rule struct {
	Antecedent item.Itemset
	Consequent item.Itemset
	// RI is the rule interest (E[sup(A∪C)] − sup(A∪C))/sup(A).
	RI float64
	// Expected and Actual are the relative supports of A∪C.
	Expected float64
	Actual   float64
	// NegConfidence is P(¬C | A) = 1 − sup(A∪C)/sup(A): the fraction of
	// antecedent baskets that indeed avoid the consequent. It is the "60%
	// of the customers who buy potato chips do not buy bottled water"
	// number from the paper's introduction.
	NegConfidence float64
	// Source and Via carry the provenance of the negative itemset the
	// rule was extracted from (see Itemset).
	Source item.Itemset
	Via    Mode
}

// String renders the rule with raw item ids.
func (r Rule) String() string {
	return fmt.Sprintf("%v =/=> %v (RI=%.4f exp=%.4f act=%.4f)",
		r.Antecedent, r.Consequent, r.RI, r.Expected, r.Actual)
}

// Format renders the rule with item names.
func (r Rule) Format(name func(item.Item) string) string {
	return fmt.Sprintf("%s =/=> %s (RI=%.4f exp=%.4f act=%.4f)",
		r.Antecedent.Format(name), r.Consequent.Format(name), r.RI, r.Expected, r.Actual)
}

// Timing breaks a run into the paper's reporting units: the figures time
// only the negative stages ("we have not included the time taken to
// generate the generalized large itemsets").
type Timing struct {
	// Stage1 is the generalized large-itemset mining time.
	Stage1 time.Duration
	// Index is the part of Stage1 spent indexing the database (pass 1 and,
	// where the budget grants the rows, their fill; see count.BuildIndex).
	// Zero when the database arrived indexed or the options name the hash
	// tree.
	Index time.Duration
	// Pass1 is the part of Index spent in its first scan, the 1-item counts;
	// Index − Pass1 is the row fill with its pair count.
	Pass1 time.Duration
	// Negative covers candidate generation, candidate counting and rule
	// generation.
	Negative time.Duration
	// CandGen, Count and RuleGen split Negative into its steps: candidate
	// generation, the candidate counting passes with the negative-itemset
	// filter, and rule generation. They add up to Negative.
	CandGen, Count, RuleGen time.Duration
}

// Result is the complete outcome of a negative mining run.
type Result struct {
	// Large is the stage-1 generalized large-itemset result.
	Large *apriori.Result
	// CandidatesBySize counts generated negative candidates per itemset
	// size (after dedup and pre-filtering) — the quantity of Figure 7.
	CandidatesBySize map[int]int
	// Negatives are the confirmed negative itemsets, sorted.
	Negatives []Itemset
	// Rules are the negative rules, sorted.
	Rules []Rule
	// Timing separates stage-1 and negative-stage wall time.
	Timing Timing
	// Walk counts what candidate generation did to produce the candidates.
	Walk WalkStats
}

// TotalCandidates sums CandidatesBySize.
func (r *Result) TotalCandidates() int {
	total := 0
	for _, n := range r.CandidatesBySize {
		total += n
	}
	return total
}

// Mine runs the full negative-association pipeline over db and tax.
func Mine(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if tax == nil {
		return nil, fmt.Errorf("negative: nil taxonomy")
	}
	opt.Gen.MinSupport = opt.MinSupport
	// One index serves every pass of the mine, stage 1's and the negative
	// ones. Negative passes pinned to the hash tree must be handed the raw
	// database: an Indexed one answers whatever Backend says.
	start := time.Now()
	var index, pass1 time.Duration
	if opt.Count.Backend != count.BackendHashTree {
		ix, err := count.BuildIndex(db, tax, apriori.MinCount(opt.MinSupport, db.Count()), opt.Gen.Count)
		if err != nil {
			return nil, err
		}
		if ix != nil {
			defer ix.Release()
			db, index, pass1 = ix, time.Since(start), ix.Pass1()
		}
	}
	mine := mineImproved
	if opt.Algorithm == Naive {
		mine = mineNaive
	}
	res, err := mine(db, tax, opt)
	if err != nil {
		return nil, err
	}
	res.Timing.Index, res.Timing.Pass1 = index, pass1
	res.Timing.Stage1 += index
	return res, nil
}

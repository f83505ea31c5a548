package gen

import (
	"fmt"

	"negmine/internal/apriori"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// PruneInteresting filters positive generalized rules down to the
// R-interesting ones, after Srikant & Agrawal (VLDB 1995 §3) — the
// uninteresting-rule pruning the reproduced paper cites as the closest
// prior work to its negative rules.
//
// A rule X ⇒ Y is pruned when some "close ancestor" rule X̂ ⇒ Ŷ (obtained
// by replacing exactly one item of X or Y with its taxonomy parent, where
// that ancestor rule's parts all have known supports) already predicts it:
// the rule survives only if, against every such ancestor rule, its actual
// support is at least R times the expected support *or* its confidence is
// at least R times the expected confidence. Expected values scale the
// ancestor rule by sup(item)/sup(parent) — the same uniformity assumption
// the negative miner uses.
//
// R must be ≥ 1 (R = 1.1 in the original paper's experiments).
func PruneInteresting(rules []apriori.Rule, res *apriori.Result, tax *taxonomy.Taxonomy, r float64) ([]apriori.Rule, error) {
	if !(r >= 1) {
		return nil, fmt.Errorf("gen: interest level R = %v, want ≥ 1", r)
	}
	if tax == nil {
		return nil, fmt.Errorf("gen: nil taxonomy")
	}
	// Index mined rules by their parts for confidence lookups of ancestor
	// rules.
	byParts := item.NewIndex(len(rules))
	for i, rule := range rules {
		byParts.Insert(partsHash(rule.Antecedent, rule.Consequent), int32(i))
	}

	var out []apriori.Rule
	for _, rule := range rules {
		interesting := true
		// Enumerate close ancestor rules: one item of either side replaced
		// by its parent.
		// Expected support scales with every replaced item; expected
		// confidence is conditional on the antecedent, so it scales only
		// with consequent replacements.
		check := func(ante, cons item.Itemset, supRatio, confRatio float64) {
			if !interesting {
				return
			}
			h := partsHash(ante, cons)
			i, at := byParts.Probe(h)
			for i >= 0 && !(rules[i].Antecedent.Equal(ante) && rules[i].Consequent.Equal(cons)) {
				i, at = byParts.Next(h, at)
			}
			if i < 0 {
				return // ancestor rule not mined: cannot judge, keep
			}
			anc := rules[i]
			expSup := anc.Support * supRatio
			expConf := anc.Confidence * confRatio
			if rule.Support < r*expSup && rule.Confidence < r*expConf {
				interesting = false
			}
		}
		replaceOne(rule.Antecedent, tax, res.Table, func(s item.Itemset, ratio float64) {
			check(s, rule.Consequent, ratio, 1)
		})
		replaceOne(rule.Consequent, tax, res.Table, func(s item.Itemset, ratio float64) {
			check(rule.Antecedent, s, ratio, ratio)
		})
		if interesting {
			out = append(out, rule)
		}
	}
	return out, nil
}

// partsHash hashes a rule by its antecedent and its consequent, so that A ⇒ C
// and C ⇒ A hash apart.
func partsHash(ante, cons item.Itemset) uint64 { return item.Mix(ante.Hash()) + cons.Hash() }

// replaceOne yields every variant of s with exactly one member replaced by
// its taxonomy parent (skipping variants whose ratio cannot be computed),
// along with the support ratio sup(item)/sup(parent).
func replaceOne(s item.Itemset, tax *taxonomy.Taxonomy, table *item.Table, fn func(item.Itemset, float64)) {
	for i, x := range s {
		p := tax.Parent(x)
		if p == item.None {
			continue
		}
		supX, okX := table.Support(item.Itemset{x})
		supP, okP := table.Support(item.Itemset{p})
		if !okX || !okP || supP == 0 {
			continue
		}
		variant := s.ReplaceAt(i, p)
		if variant.Len() != s.Len() {
			continue // parent collided with another member
		}
		fn(variant, supX/supP)
	}
}

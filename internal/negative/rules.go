package negative

import (
	"sort"

	"negmine/internal/apriori"
	"negmine/internal/item"
)

// generateRules extends ap-genrules to negative itemsets (paper §2.3,
// Figure 4). For each negative itemset n it emits every rule
// (n − h) =/=> h whose antecedent and consequent are both large and whose
// rule interest RI = (E[sup(n)] − sup(n))/sup(n − h) reaches minRI.
// Consequents h grow level-wise via apriori-gen. A consequent that is small
// or whose RI falls short is dropped from its level: growing h keeps it
// small and shrinks the antecedent, which can only lower RI, so none of its
// supersets qualifies. A consequent whose antecedent is small yields no rule
// but stays: a larger consequent leaves a smaller antecedent, which may be
// large. Figure 4 drops it too, and so loses rules the definition admits.
func generateRules(negs []Itemset, table *item.Table, minRI float64) []Rule {
	var rules []Rule
	for _, n := range negs {
		k := n.Set.Len()
		if k < 2 {
			continue
		}
		deviation := n.Deviation()
		actual := n.Actual()
		// consider tests one consequent; it returns true when the rule
		// passes (so the consequent survives into the next level).
		consider := func(consequent item.Itemset) bool {
			if !table.Contains(consequent) {
				return false // consequent small; all supersets small too
			}
			ante := n.Set.Minus(consequent)
			supA, ok := table.Support(ante)
			if !ok || supA == 0 {
				return true // antecedent small: no rule, but a larger consequent may give one
			}
			ri := deviation / supA
			if ri < minRI {
				return false
			}
			rules = append(rules, Rule{
				Antecedent:    ante,
				Consequent:    consequent.Clone(),
				RI:            ri,
				Expected:      n.Expected,
				Actual:        actual,
				NegConfidence: 1 - actual/supA,
				Source:        n.Source,
				Via:           n.Via,
			})
			return true
		}

		// H1: single-item consequents.
		var h []item.Itemset
		n.Set.Subsets(1, func(c item.Itemset) {
			if consider(c) {
				h = append(h, c.Clone())
			}
		})
		// Grow consequents while they stay proper subsets of n.
		for m := 2; m < k && len(h) > 0; m++ {
			next := apriori.Gen(h)
			h = h[:0]
			for _, c := range next {
				if consider(c) {
					h = append(h, c)
				}
			}
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if c := rules[i].Antecedent.Compare(rules[j].Antecedent); c != 0 {
			return c < 0
		}
		return rules[i].Consequent.Compare(rules[j].Consequent) < 0
	})
	return rules
}

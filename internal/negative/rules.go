package negative

import (
	"negmine/internal/item"
)

// generateRules extends ap-genrules to negative itemsets (paper §2.3,
// Figure 4). For each negative itemset n it emits every rule
// (n − h) =/=> h whose antecedent and consequent are both large and whose
// rule interest RI = (E[sup(n)] − sup(n))/sup(n − h) reaches minRI.
// Consequents h grow level-wise (item.Consequents). A consequent that is
// small or whose RI falls short is dropped from its level: growing h keeps it
// small and shrinks the antecedent, which can only lower RI, so none of its
// supersets qualifies. A consequent whose antecedent is small yields no rule
// but stays: a larger consequent leaves a smaller antecedent, which may be
// large. Figure 4 drops it too, and so loses rules the definition admits.
func generateRules(negs []Itemset, table *item.Table, minRI float64) []Rule {
	var (
		rules []Rule
		walk  item.Consequents
		slab  item.Slab
	)
	total := float64(table.Total())
	for _, n := range negs {
		deviation, actual := n.Deviation(), n.Actual()
		full := uint64(1)<<n.Set.Len() - 1
		walk.Walk(table, n.Set, func(cons uint64, consCount, anteCount int) bool {
			if consCount < 0 {
				return false // consequent small; all supersets small too
			}
			if anteCount <= 0 {
				return true // antecedent small: no rule, but a larger consequent may give one
			}
			supA := float64(anteCount) / total
			ri := deviation / supA
			if ri < minRI {
				return false
			}
			rules = append(rules, Rule{
				Antecedent:    slab.Pick(n.Set, full&^cons),
				Consequent:    slab.Pick(n.Set, cons),
				RI:            ri,
				Expected:      n.Expected,
				Actual:        actual,
				NegConfidence: 1 - actual/supA,
				Source:        n.Source,
				Via:           n.Via,
			})
			return true
		})
	}
	item.SortBySides(rules, func(r *Rule) (item.Itemset, item.Itemset) { return r.Antecedent, r.Consequent })
	return rules
}

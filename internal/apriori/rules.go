package apriori

import (
	"fmt"

	"negmine/internal/item"
)

// Rule is a positive association rule Antecedent => Consequent with its
// measures: Support is the relative support of Antecedent ∪ Consequent,
// Confidence is sup(A ∪ C)/sup(A).
type Rule struct {
	Antecedent item.Itemset
	Consequent item.Itemset
	Support    float64
	Confidence float64
}

// String renders the rule with raw item ids.
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup=%.4f conf=%.4f)", r.Antecedent, r.Consequent, r.Support, r.Confidence)
}

// Format renders the rule with item names.
func (r Rule) Format(name func(item.Item) string) string {
	return fmt.Sprintf("%s => %s (sup=%.4f conf=%.4f)",
		r.Antecedent.Format(name), r.Consequent.Format(name), r.Support, r.Confidence)
}

// GenRules implements ap-genrules: for every large itemset l of size ≥ 2 it
// emits all rules A => (l − A) with confidence ≥ minConf. The consequents
// grow level-wise (item.Consequents), pruned by the anti-monotonicity of
// confidence: if a rule with consequent c fails, every rule with a superset
// consequent fails too.
func GenRules(res *Result, minConf float64) ([]Rule, error) {
	if !(minConf >= 0 && minConf <= 1) {
		return nil, fmt.Errorf("apriori: minConf = %v, want [0, 1]", minConf)
	}
	var (
		rules []Rule
		walk  item.Consequents
		slab  item.Slab
	)
	for k := 2; k <= len(res.Levels); k++ {
		for _, cs := range res.Levels[k-1] {
			l, full := cs.Set, uint64(1)<<k-1
			walk.Walk(res.Table, l, func(cons uint64, _, anteCount int) bool {
				if anteCount <= 0 {
					// Cannot happen for large l (subsets of large sets are
					// large); defensive for tables built by hand.
					return false
				}
				conf := float64(cs.Count) / float64(anteCount)
				if conf < minConf {
					return false
				}
				rules = append(rules, Rule{
					Antecedent: slab.Pick(l, full&^cons),
					Consequent: slab.Pick(l, cons),
					Support:    float64(cs.Count) / float64(res.N),
					Confidence: conf,
				})
				return true
			})
		}
	}
	item.SortBySides(rules, func(r *Rule) (item.Itemset, item.Itemset) { return r.Antecedent, r.Consequent })
	return rules, nil
}

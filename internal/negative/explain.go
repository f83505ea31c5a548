package negative

import (
	"fmt"
	"strings"

	"negmine/internal/item"
)

// Explain renders a step-by-step derivation of a negative rule: the large
// itemset it came from, the swap that formed the candidate, the expected
// and actual supports, and the interest computation — everything an analyst
// needs to audit why the system claims "customers who buy A don't buy C".
// name maps item ids to display names (e.g. Taxonomy.Name); table is the
// stage-1 table over Result.Large.Levels, Result.Large.Table.
func Explain(r Rule, table *item.Table, name func(item.Item) string) string {
	var b strings.Builder
	set := r.Antecedent.Union(r.Consequent)
	fmt.Fprintf(&b, "rule: %s =/=> %s\n", r.Antecedent.Format(name), r.Consequent.Format(name))

	fmt.Fprintf(&b, "  derived from the large itemset %s via %s replacement\n",
		r.Source.Format(name), r.Via)
	if sup, ok := table.Support(r.Source); ok {
		fmt.Fprintf(&b, "  sup(%s) = %.4f\n", r.Source.Format(name), sup)
	}
	// Identify the swapped members (source \ candidate vs candidate \ source).
	replaced := r.Source.Minus(set)
	replacements := set.Minus(r.Source)
	for i := 0; i < replaced.Len() && i < replacements.Len(); i++ {
		orig, repl := replaced[i], replacements[i]
		so, okO := table.Support(item.Itemset{orig})
		sr, okR := table.Support(item.Itemset{repl})
		if okO && okR && so > 0 {
			fmt.Fprintf(&b, "  swap %s → %s scales expectation by sup(%s)/sup(%s) = %.4f/%.4f\n",
				name(orig), name(repl), name(repl), name(orig), sr, so)
		}
	}
	fmt.Fprintf(&b, "  expected sup(%s) = %.4f (uniformity assumption)\n", set.Format(name), r.Expected)
	fmt.Fprintf(&b, "  actual   sup(%s) = %.4f\n", set.Format(name), r.Actual)
	if supA, ok := table.Support(r.Antecedent); ok {
		fmt.Fprintf(&b, "  RI = (%.4f − %.4f) / sup(%s)=%.4f = %.4f\n",
			r.Expected, r.Actual, r.Antecedent.Format(name), supA, r.RI)
	} else {
		fmt.Fprintf(&b, "  RI = %.4f\n", r.RI)
	}
	fmt.Fprintf(&b, "  %.1f%% of %s baskets contain no %s\n",
		r.NegConfidence*100, r.Antecedent.Format(name), r.Consequent.Format(name))
	return b.String()
}

// Crossmarketing: generate a synthetic supermarket with the paper's §3.1
// data generator, mine negative rules, and rank them as a marketing analyst
// would — strongest "customers who buy X avoid Y" signals first. This is
// the paper's motivating application (better shelf placement, no wasted
// cross-promotions between substitutes).
//
//	go run ./examples/crossmarketing
package main

import (
	"fmt"
	"log"
	"sort"

	"negmine"
)

func main() {
	// A mid-size store: the paper's "Short" proportions at 1/10 the
	// transaction volume (8,000 products, shallow category tree).
	params := negmine.ShortDataParams()
	params.NumTransactions = 5000
	params.Seed = 42

	fmt.Println("generating synthetic store data (nested-logit consumer model)...")
	tax, db, err := negmine.GenerateData(params)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := negmine.CollectStats(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d baskets, %.1f items/basket, %d products in a %d-level taxonomy\n\n",
		stats.Transactions, stats.AvgLen, tax.Leaves().Len(), tax.Height()+1)

	opt := negmine.NegativeOptions{
		MinSupport: 0.015,
		MinRI:      0.5,
		Algorithm:  negmine.Improved,
	}
	opt.Count.Parallelism = 4
	opt.Gen.Count.Parallelism = 4

	res, err := negmine.MineNegative(db, tax, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1: %d generalized large itemsets (%v)\n",
		len(res.Large.Large()), res.Timing.Stage1.Round(1000000))
	fmt.Printf("stage 2+3: %d candidates → %d negative itemsets → %d rules (%v)\n\n",
		res.TotalCandidates(), len(res.Negatives), len(res.Rules),
		res.Timing.Negative.Round(1000000))

	// Rank rules by interest and show the top signals.
	rules := append([]negmine.NegativeRule(nil), res.Rules...)
	sort.Slice(rules, func(i, j int) bool { return rules[i].RI > rules[j].RI })
	n := len(rules)
	if n > 15 {
		n = 15
	}
	fmt.Printf("top %d negative associations (of %d):\n", n, len(rules))
	for _, r := range rules[:n] {
		fmt.Printf("  %-40s RI=%.2f (expected %.3f%%, saw %.3f%%)\n",
			r.Antecedent.Format(tax.Name)+" =/=> "+r.Consequent.Format(tax.Name),
			r.RI, r.Expected*100, r.Actual*100)
	}
	if len(rules) == 0 {
		fmt.Println("  (none — try lowering -MinRI or MinSupport)")
	}
}

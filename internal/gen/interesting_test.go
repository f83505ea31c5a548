package gen

import (
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// interestingFixture: clothes(jackets, shirts); shoes standalone.
// The ancestor rule {clothes} ⇒ {shoes} is mined; the specializations
// {jackets} ⇒ {shoes} and {shirts} ⇒ {shoes} may or may not add
// information beyond it.
func interestingFixture(t *testing.T) (*taxonomy.Taxonomy, map[string]item.Item, *apriori.Result) {
	t.Helper()
	b := taxonomy.NewBuilder()
	b.Link("clothes", "jackets")
	b.Link("clothes", "shirts")
	b.Node("shoes")
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]item.Item{}
	for _, n := range []string{"clothes", "jackets", "shirts", "shoes"} {
		ids[n], _ = tax.Dictionary().Lookup(n)
	}
	res := &apriori.Result{Table: item.NewSupportTable(1000), N: 1000}
	res.Table.Put(item.New(ids["clothes"]), 500)
	res.Table.Put(item.New(ids["jackets"]), 250) // half of clothes
	res.Table.Put(item.New(ids["shirts"]), 250)
	res.Table.Put(item.New(ids["shoes"]), 400)
	return tax, ids, res
}

func TestPruneInterestingDropsPredicted(t *testing.T) {
	tax, ids, res := interestingFixture(t)
	ancestor := apriori.Rule{
		Antecedent: item.New(ids["clothes"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.10, // sup{clothes,shoes} = 100
		Confidence: 0.20, // 100/500
	}
	// Jackets behave exactly as the ancestor predicts: expected support =
	// 0.10·(250/500) = 0.05, expected confidence 0.20. Uninteresting.
	predicted := apriori.Rule{
		Antecedent: item.New(ids["jackets"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.05,
		Confidence: 0.20,
	}
	// Shirts wildly over-perform: interesting.
	surprising := apriori.Rule{
		Antecedent: item.New(ids["shirts"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.09, // vs expected 0.05 → 1.8×
		Confidence: 0.36,
	}
	got, err := PruneInteresting([]apriori.Rule{ancestor, predicted, surprising}, res, tax, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range got {
		names[r.Antecedent.String()] = true
	}
	if !names[item.New(ids["clothes"]).String()] {
		t.Error("root-level rule pruned (it has no ancestors)")
	}
	if names[item.New(ids["jackets"]).String()] {
		t.Error("predicted specialization survived")
	}
	if !names[item.New(ids["shirts"]).String()] {
		t.Error("surprising specialization pruned")
	}
}

func TestPruneInterestingSupportOrConfidence(t *testing.T) {
	// Surviving needs only ONE of the two criteria: a rule with expected
	// support but much higher confidence stays.
	tax, ids, res := interestingFixture(t)
	ancestor := apriori.Rule{
		Antecedent: item.New(ids["clothes"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.10,
		Confidence: 0.20,
	}
	confOnly := apriori.Rule{
		Antecedent: item.New(ids["jackets"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.05, // exactly expected
		Confidence: 0.40, // 2× expected
	}
	got, err := PruneInteresting([]apriori.Rule{ancestor, confOnly}, res, tax, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("confidence-interesting rule pruned: %v", got)
	}
}

func TestPruneInterestingNoAncestorRule(t *testing.T) {
	// Without the ancestor rule in the mined set, specializations cannot
	// be judged and are kept.
	tax, ids, res := interestingFixture(t)
	lone := apriori.Rule{
		Antecedent: item.New(ids["jackets"]),
		Consequent: item.New(ids["shoes"]),
		Support:    0.05,
		Confidence: 0.20,
	}
	got, err := PruneInteresting([]apriori.Rule{lone}, res, tax, 1.1)
	if err != nil || len(got) != 1 {
		t.Errorf("lone rule pruned: %v, %v", got, err)
	}
}

func TestPruneInterestingValidation(t *testing.T) {
	tax, _, res := interestingFixture(t)
	if _, err := PruneInteresting(nil, res, tax, 0.5); err == nil {
		t.Error("R < 1 accepted")
	}
	if _, err := PruneInteresting(nil, res, nil, 1.1); err == nil {
		t.Error("nil taxonomy accepted")
	}
}

func TestPruneInterestingEndToEnd(t *testing.T) {
	// On real mined data: pruning must keep a subset and every kept rule
	// must clear the criterion against its mined close-ancestor rules.
	tax, ids := grocery(t)
	db := groceryDB(ids)
	res, err := Mine(db, tax, Options{MinSupport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := apriori.GenRules(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := PruneInteresting(rules, res, tax, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) > len(rules) {
		t.Fatalf("pruning grew the rule set: %d > %d", len(kept), len(rules))
	}
	if len(rules) > 0 && len(kept) == 0 {
		t.Error("pruning removed every rule (R too aggressive for test data?)")
	}
}

package negmine_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"negmine"
)

const exampleTaxonomy = `
beverages soda
beverages juice
soda coke
soda pepsi
snacks chips
snacks pretzels
`

// 20 baskets: coke dominates chips baskets; pepsi sells well but almost
// never with chips — the negative-association setup of the paper's
// Example 1.
const exampleBaskets = `
coke chips
coke chips
coke chips
coke chips
coke chips
coke chips
coke chips
coke chips
coke
coke
pepsi
pepsi
pepsi
pepsi
pepsi chips
juice chips
juice chips
coke pretzels
coke pretzels
pretzels
`

func loadExample(t *testing.T) (*negmine.Taxonomy, *negmine.MemDB, *negmine.Dictionary) {
	t.Helper()
	tax, err := negmine.ParseTaxonomy(strings.NewReader(exampleTaxonomy))
	if err != nil {
		t.Fatal(err)
	}
	db, err := negmine.ReadBaskets(strings.NewReader(exampleBaskets), tax.Dictionary())
	if err != nil {
		t.Fatal(err)
	}
	return tax, db, tax.Dictionary()
}

func TestPublicEndToEnd(t *testing.T) {
	tax, db, dict := loadExample(t)

	// Classic frequent mining + positive rules.
	freq, err := negmine.MineFrequent(db, negmine.FrequentOptions{MinSupport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(freq.Levels) < 2 {
		t.Fatalf("frequent levels = %d", len(freq.Levels))
	}
	rules, err := negmine.GenerateRules(freq, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	coke, _ := dict.Lookup("coke")
	chips, _ := dict.Lookup("chips")
	foundPositive := false
	for _, r := range rules {
		if r.Antecedent.Equal(negmine.NewItemset(chips)) && r.Consequent.Equal(negmine.NewItemset(coke)) {
			foundPositive = true
		}
	}
	if !foundPositive {
		t.Errorf("missing positive rule chips=>coke in %v", rules)
	}

	// Generalized mining sees categories.
	genRes, err := negmine.MineGeneralized(db, tax, negmine.GeneralizedOptions{MinSupport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	soda, _ := dict.Lookup("soda")
	if !genRes.Table.Contains(negmine.NewItemset(soda)) {
		t.Error("generalized mining missed the soda category")
	}

	// Negative mining: coke dominates soda-with-chips baskets, so pepsi
	// should be negatively associated with chips.
	negRes, err := negmine.MineNegative(db, tax, negmine.NegativeOptions{
		MinSupport: 0.15,
		MinRI:      0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pepsi, _ := dict.Lookup("pepsi")
	foundNeg := false
	for _, n := range negRes.Negatives {
		if n.Set.Contains(pepsi) && n.Set.Contains(chips) {
			foundNeg = true
		}
	}
	if !foundNeg {
		var sets []string
		for _, n := range negRes.Negatives {
			sets = append(sets, n.Set.Format(tax.Name))
		}
		t.Errorf("expected {pepsi chips} negative itemset; got %v", sets)
	}
}

func TestPublicFileRoundTrip(t *testing.T) {
	_, db, _ := loadExample(t)
	path := filepath.Join(t.TempDir(), "db.nmtx")
	if err := negmine.SaveDB(path, db); err != nil {
		t.Fatal(err)
	}
	f, err := negmine.OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != db.Count() {
		t.Errorf("file count %d, want %d", f.Count(), db.Count())
	}
	mem, err := negmine.LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := negmine.CollectStats(db)
	st2, _ := negmine.CollectStats(mem)
	if st1 != st2 {
		t.Errorf("stats differ: %+v vs %+v", st1, st2)
	}
}

func TestPublicDataGeneration(t *testing.T) {
	p := negmine.ScaleDataParams(negmine.ShortDataParams(), 50)
	p.Seed = 3
	tax, db, err := negmine.GenerateData(p)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count() != p.NumTransactions || tax.Leaves().Len() != p.NumItems {
		t.Errorf("generated %d txs, %d leaves", db.Count(), tax.Leaves().Len())
	}
	// The whole pipeline runs on generated data. A MaxK bound keeps this
	// smoke test fast — heavily scaled-down data is much denser than the
	// paper's full-size datasets.
	res, err := negmine.MineNegative(db, tax, negmine.NegativeOptions{
		MinSupport: 0.1, MinRI: 0.3, Algorithm: negmine.Improved,
		Gen: negmine.GeneralizedOptions{MaxK: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Large == nil {
		t.Fatal("no stage-1 result")
	}
}

func TestEstimateExported(t *testing.T) {
	if negmine.EstimateNegativeCandidates(2, 3) != 19 {
		t.Error("estimate formula wrong through facade")
	}
}

func TestPruneInterestingFacade(t *testing.T) {
	tax, db, _ := loadExample(t)
	res, err := negmine.MineGeneralized(db, tax, negmine.GeneralizedOptions{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := negmine.GenerateRules(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := negmine.PruneInteresting(rules, res, tax, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) > len(rules) {
		t.Errorf("pruning grew rules: %d > %d", len(kept), len(rules))
	}
	if _, err := negmine.PruneInteresting(rules, res, tax, 0.2); err == nil {
		t.Error("R < 1 accepted")
	}
}

func TestExportFacade(t *testing.T) {
	tax, db, _ := loadExample(t)
	res, err := negmine.MineNegative(db, tax, negmine.NegativeOptions{MinSupport: 0.15, MinRI: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := negmine.WriteNegativeJSON(&buf, res, 0.15, 0.3, tax.Name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "negConfidence") {
		t.Error("JSON missing negConfidence")
	}
	buf.Reset()
	if err := negmine.WriteNegativeCSV(&buf, res, tax.Name); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "antecedent,") {
		t.Error("CSV header missing")
	}
	freq, _ := negmine.MineFrequent(db, negmine.FrequentOptions{MinSupport: 0.25})
	rules, _ := negmine.GenerateRules(freq, 0.6)
	buf.Reset()
	if err := negmine.WritePositiveJSON(&buf, rules, tax.Name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "confidence") {
		t.Error("positive JSON malformed")
	}
	buf.Reset()
	if err := negmine.WritePositiveCSV(&buf, rules, tax.Name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "support,confidence") {
		t.Error("positive CSV malformed")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if negmine.NewItemset(3, 1, 3).String() != "{1 3}" {
		t.Error("NewItemset wrong")
	}
	d := negmine.NewDictionary()
	if d.Intern("x") != 0 {
		t.Error("dictionary wrong")
	}
	b := negmine.NewTaxonomyBuilder()
	b.Link("p", "c")
	tax, err := b.Build()
	if err != nil || tax.Size() != 2 {
		t.Errorf("builder: %v, size %d", err, tax.Size())
	}
	db, err := negmine.NewMemDB([]negmine.Transaction{{TID: 1, Items: negmine.NewItemset(1)}})
	if err != nil || db.Count() != 1 {
		t.Errorf("NewMemDB: %v", err)
	}
	if _, err := negmine.ReadBasketsInts(strings.NewReader("1 2\n")); err != nil {
		t.Errorf("ReadBasketsInts: %v", err)
	}
	if _, err := negmine.ParseTaxonomy(strings.NewReader("a b c\n")); err == nil {
		t.Error("bad taxonomy accepted")
	}
	if negmine.TallDataParams().Fanout != 3 {
		t.Error("TallDataParams wrong")
	}
}

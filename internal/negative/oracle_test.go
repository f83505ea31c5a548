package negative

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/stats"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// This file cross-validates the entire negative pipeline against a
// brute-force oracle that re-derives candidates, negative itemsets and
// rules directly from the paper's definitions, with no shared code beyond
// the itemset primitives.

// oracleSupport counts transactions whose ancestor-extended itemset
// contains s.
func oracleSupport(db *txdb.MemDB, tax *taxonomy.Taxonomy, s item.Itemset) int {
	n := 0
	db.Scan(func(tx txdb.Transaction) error {
		if s.SubsetOf(tax.Extend(tx.Items)) {
			n++
		}
		return nil
	})
	return n
}

// oracleLarge finds all generalized large itemsets by brute force.
func oracleLarge(db *txdb.MemDB, tax *taxonomy.Taxonomy, minCount, maxK int) map[item.Key]int {
	out := map[item.Key]int{}
	counts := map[item.Key]int{}
	db.Scan(func(tx txdb.Transaction) error {
		ext := tax.Extend(tx.Items)
		for k := 1; k <= maxK; k++ {
			ext.Subsets(k, func(s item.Itemset) { counts[s.Key()]++ })
		}
		return nil
	})
	for k, c := range counts {
		if c < minCount {
			continue
		}
		s := k.Itemset()
		ancPair := false
		for i := range s {
			for j := range s {
				if i != j && tax.IsAncestor(s[i], s[j]) {
					ancPair = true
				}
			}
		}
		if !ancPair {
			out[k] = c
		}
	}
	return out
}

// oracleCandidates re-derives the candidate set from the §2.1.1 definition:
// for every large itemset, every combination of keep / child-replace (cases
// 1–2) and keep / sibling-replace with ≥1 kept (case 3), max-merged. The
// members of a substitute group (§4.1) are further siblings of each other.
// Nothing is pruned before a set is complete.
func oracleCandidates(large map[item.Key]int, tax *taxonomy.Taxonomy, n int, minSup, minRI float64, substitutes []item.Itemset) map[item.Key]float64 {
	isLarge := func(x item.Item) bool {
		_, ok := large[item.Itemset{x}.Key()]
		return ok
	}
	sup := func(s item.Itemset) (float64, bool) {
		c, ok := large[s.Key()]
		return float64(c) / float64(n), ok
	}
	floor := minSup * minRI
	out := map[item.Key]float64{}
	emit := func(set item.Itemset, e float64) {
		if e <= floor {
			return
		}
		if _, ok := large[set.Key()]; ok {
			return
		}
		for i := range set {
			for j := range set {
				if i != j && tax.IsAncestor(set[i], set[j]) {
					return
				}
			}
		}
		if old, ok := out[set.Key()]; !ok || e > old {
			out[set.Key()] = e
		}
	}
	for k := range large {
		l := k.Itemset()
		if l.Len() < 2 {
			continue
		}
		supL, _ := sup(l)
		// Enumerate all assignments: keep(0) / replacement index per slot.
		var choices func(mode string) func(item.Item) []item.Item
		choices = func(mode string) func(item.Item) []item.Item {
			if mode == "children" {
				return tax.Children
			}
			return func(x item.Item) []item.Item {
				sibs := tax.Siblings(x)
				for _, group := range substitutes {
					if group.Contains(x) {
						sibs = append(sibs, group.Without(x)...)
					}
				}
				return sibs
			}
		}
		for _, mode := range []string{"children", "siblings"} {
			ch := choices(mode)
			var rec func(pos int, members []item.Item, ratio float64, replaced, kept int)
			rec = func(pos int, members []item.Item, ratio float64, replaced, kept int) {
				if pos == l.Len() {
					if replaced == 0 || (mode == "siblings" && kept == 0) {
						return
					}
					set := item.New(members...)
					if set.Len() != l.Len() {
						return
					}
					allLarge := true
					for _, x := range set {
						if !isLarge(x) {
							allLarge = false
						}
					}
					if allLarge {
						emit(set, supL*ratio)
					}
					return
				}
				x := l[pos]
				rec(pos+1, append(members, x), ratio, replaced, kept+1)
				supX, okX := sup(item.Itemset{x})
				if !okX || supX == 0 {
					return
				}
				for _, r := range ch(x) {
					if !isLarge(r) {
						continue
					}
					supR, okR := sup(item.Itemset{r})
					if !okR {
						continue
					}
					rec(pos+1, append(members, r), ratio*supR/supX, replaced+1, kept)
				}
			}
			rec(0, nil, 1, 0, 0)
		}
	}
	return out
}

// oracleMarket is trial's input: a three-root taxonomy over 18 leaves and 200
// transactions of one to four random leaves.
func oracleMarket(t *testing.T, trial int64) (*taxonomy.Taxonomy, *txdb.MemDB) {
	t.Helper()
	tax, err := taxonomy.Generate(taxonomy.GenSpec{Leaves: 18, Roots: 3, Fanout: 3}, stats.NewSource(trial+7))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(trial * 17))
	db := &txdb.MemDB{}
	lv := tax.Leaves()
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(4)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = lv[r.Intn(len(lv))]
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	return tax, db
}

// TestCandidatesAgainstOracle holds stage 1 and candidate generation to the
// definitions over hundreds of markets. The first 400 are the pipeline test's
// (trial 162 is the one whose {18 23 25}, expectation 0.02451 over a floor of
// 0.024, a floor cut on the running product lost: 19 → 18 takes the product
// below the floor, 22 → 23 — a sibling more popular than the member it
// replaces — lifts it back). The rest go to k = 4 at a lower support, with a
// substitute group drawn across the taxonomy.
func TestCandidatesAgainstOracle(t *testing.T) {
	var fours, viaSubstitute int
	corners := 20
	if testing.Short() {
		corners = 5
	}
	for trial := int64(1); trial <= 520; trial++ {
		if testing.Short() && trial%4 != 2 {
			continue // the race detector's share: trials 2, 6, … 162, …
		}
		tax, db := oracleMarket(t, trial)
		maxK, minSup, minRI := 3, 0.06, 0.4
		var subs []item.Itemset
		if trial > 400 {
			maxK, minSup, minRI = 4, 0.02, 0.3
			r := rand.New(rand.NewSource(trial))
			if g := item.New(item.Item(r.Intn(tax.Size())), item.Item(r.Intn(tax.Size())), item.Item(r.Intn(tax.Size()))); g.Len() >= 2 {
				subs = append(subs, g)
			}
		}
		large, err := gen.Mine(db, tax, gen.Options{MinSupport: minSup, MaxK: maxK})
		if err != nil {
			t.Fatal(err)
		}
		want := checkLargeAndCandidates(t, trial, db, tax, large, maxK, minSup, minRI, subs)
		if len(large.Levels) == 4 {
			fours++
		}
		if len(subs) > 0 && len(want) != len(oracleCandidates(oracleLarge(db, tax, large.MinCount, maxK), tax, db.Count(), minSup, minRI, nil)) {
			viaSubstitute++
		}
	}
	t.Logf("%d markets reached k = 4, %d owe a candidate to their substitutes", fours, viaSubstitute)
	if fours < corners || viaSubstitute < corners {
		t.Fatalf("%d markets reached k = 4, %d owe a candidate to their substitutes: the trials lost their corners", fours, viaSubstitute)
	}
}

// checkLargeAndCandidates validates a stage-1 result and the candidates
// generated from it against the brute-force oracle, and returns the oracle's
// candidates with their expected supports.
func checkLargeAndCandidates(t *testing.T, trial int64, db *txdb.MemDB, tax *taxonomy.Taxonomy, large *apriori.Result, maxK int, minSup, minRI float64, subs []item.Itemset) map[item.Key]float64 {
	t.Helper()
	// 1. Stage 1 against the oracle.
	wantLarge := oracleLarge(db, tax, large.MinCount, maxK)
	gotLarge := map[item.Key]int{}
	for _, cs := range large.Large() {
		gotLarge[cs.Set.Key()] = cs.Count
	}
	if len(wantLarge) != len(gotLarge) {
		t.Fatalf("trial %d: %d large itemsets, oracle %d", trial, len(gotLarge), len(wantLarge))
	}
	for k, c := range wantLarge {
		if gotLarge[k] != c {
			t.Fatalf("trial %d: sup(%v) = %d, oracle %d", trial, k.Itemset(), gotLarge[k], c)
		}
	}

	// 2. Candidates against the oracle, generated on the restricted
	// taxonomy by one worker (GenerateCandidates), then by 2 and 5, which
	// must agree with it.
	wantCands := oracleCandidates(wantLarge, tax, db.Count(), minSup, minRI, subs)
	rtax := tax.Restrict(func(x item.Item) bool {
		return large.Table.Contains(item.Itemset{x})
	})
	cands := GenerateCandidates(large.Levels, large.Table, rtax, minSup, minRI, subs)
	opt := Options{MinSupport: minSup, MinRI: minRI, Substitutes: subs}
	for _, workers := range []int{2, 5} {
		opt.Count.Parallelism = workers
		if got := generateCandidates(large.Levels, large.Table, rtax, singleSupports(large.Table, rtax.Size()), opt).list(); !sameCandidates(got, cands) {
			t.Fatalf("trial %d: %d workers generate other candidates than one", trial, workers)
		}
	}
	gotCands := map[item.Key]float64{}
	for _, c := range cands {
		gotCands[c.Set.Key()] = c.Expected
	}
	for k, e := range wantCands {
		if g, ok := gotCands[k]; !ok || math.Abs(g-e) > 1e-9 {
			t.Fatalf("trial %d: candidate %v expected %v, oracle %v (ok=%v)", trial, k.Itemset(), g, e, ok)
		}
	}
	if len(wantCands) != len(gotCands) {
		t.Fatalf("trial %d: %d candidates, oracle %d", trial, len(gotCands), len(wantCands))
	}
	return wantCands
}

// TestPipelineAgainstOracle takes 200 of those markets (NEGMINE_ORACLE_TRIALS
// sets another number) through counting and rule generation. The rules must
// be every rule the definition admits: trial 54's {0} =/=> {19 23} is one
// Figure 4's schedule dropped, its consequent {19} having a small antecedent.
func TestPipelineAgainstOracle(t *testing.T) {
	const maxK = 3
	trials := int64(200)
	if v := os.Getenv("NEGMINE_ORACLE_TRIALS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("NEGMINE_ORACLE_TRIALS=%q: %v", v, err)
		}
		trials = n
	}
	for trial := int64(1); trial <= trials; trial++ {
		tax, db := oracleMarket(t, trial)
		const minSup, minRI = 0.06, 0.4
		// Every backend must reproduce the oracle exactly — the pipeline's
		// output is defined by the paper, not by the counting engine.
		for _, backend := range []count.Backend{count.BackendHashTree, count.BackendBitmap} {
			opt := Options{
				MinSupport: minSup, MinRI: minRI,
				Gen: gen.Options{MaxK: maxK},
			}
			opt.Count.Backend = backend
			opt.Gen.Count.Backend = backend
			res, err := Mine(db, tax, opt)
			if err != nil {
				t.Fatalf("%v: %v", backend, err)
			}
			wantCands := checkLargeAndCandidates(t, trial, db, tax, res.Large, maxK, minSup, minRI, nil)
			checkNegativesAndRules(t, trial, db, tax, res, wantCands, minSup, minRI)
		}
	}
}

// checkNegativesAndRules validates the counted half of one Mine result
// against the brute-force oracle.
func checkNegativesAndRules(t *testing.T, trial int64, db *txdb.MemDB, tax *taxonomy.Taxonomy, res *Result, wantCands map[item.Key]float64, minSup, minRI float64) {
	t.Helper()
	n := db.Count()
	{
		// 3. Negative itemsets: oracle filter over oracle candidates.
		threshold := minSup * minRI
		wantNegs := map[item.Key]struct{}{}
		for k, e := range wantCands {
			actual := float64(oracleSupport(db, tax, k.Itemset())) / float64(n)
			if e-actual >= threshold {
				wantNegs[k] = struct{}{}
			}
		}
		if len(wantNegs) != len(res.Negatives) {
			t.Fatalf("trial %d: %d negatives, oracle %d", trial, len(res.Negatives), len(wantNegs))
		}
		for _, neg := range res.Negatives {
			if _, ok := wantNegs[neg.Set.Key()]; !ok {
				t.Fatalf("trial %d: unexpected negative %v", trial, neg.Set)
			}
			// Verify the counted actual support directly.
			if want := oracleSupport(db, tax, neg.Set); want != neg.Count {
				t.Fatalf("trial %d: actual sup(%v) = %d, oracle %d", trial, neg.Set, neg.Count, want)
			}
		}

		// 4. Rules: every split of every negative itemset, by definition.
		type ruleKey struct{ a, c item.Key }
		wantRules := map[ruleKey]float64{}
		for _, neg := range res.Negatives {
			dev := neg.Deviation()
			neg.Set.AllSubsets(true, func(cons item.Itemset) {
				consK := cons.Clone()
				ante := neg.Set.Minus(consK)
				supA, okA := res.Large.Table.Support(ante)
				_, okC := res.Large.Table.Count(consK)
				if !okA || !okC || supA == 0 {
					return
				}
				if ri := dev / supA; ri >= minRI {
					wantRules[ruleKey{ante.Key(), consK.Key()}] = ri
				}
			})
		}
		gotRules := map[ruleKey]float64{}
		for _, rule := range res.Rules {
			gotRules[ruleKey{rule.Antecedent.Key(), rule.Consequent.Key()}] = rule.RI
		}
		// The oracle enumerates every definition-valid rule: every mined
		// rule must be one, and every one must be mined.
		for k, ri := range gotRules {
			if want, ok := wantRules[k]; !ok || math.Abs(want-ri) > 1e-9 {
				t.Fatalf("trial %d: mined rule %v =/=> %v not valid per oracle",
					trial, k.a.Itemset(), k.c.Itemset())
			}
		}
		for k, ri := range wantRules {
			if got, ok := gotRules[k]; !ok || math.Abs(got-ri) > 1e-9 {
				t.Fatalf("trial %d: oracle rule %v =/=> %v (RI %v) missing from miner",
					trial, k.a.Itemset(), k.c.Itemset(), ri)
			}
		}
	}
}

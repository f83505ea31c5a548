package apriori

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// classicDB is the worked example from Agrawal–Srikant style tutorials.
func classicDB() *txdb.MemDB {
	return txdb.FromItemsets(
		[]item.Item{1, 3, 4},
		[]item.Item{2, 3, 5},
		[]item.Item{1, 2, 3, 5},
		[]item.Item{2, 5},
	)
}

func TestMineClassic(t *testing.T) {
	res, err := Mine(classicDB(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCount != 2 {
		t.Fatalf("MinCount = %d, want 2", res.MinCount)
	}
	wantCounts := map[string]int{
		"{1}":     2,
		"{2}":     3,
		"{3}":     3,
		"{5}":     3,
		"{1 3}":   2,
		"{2 3}":   2,
		"{2 5}":   3,
		"{3 5}":   2,
		"{2 3 5}": 2,
	}
	got := map[string]int{}
	for _, cs := range res.Large() {
		got[cs.Set.String()] = cs.Count
	}
	if len(got) != len(wantCounts) {
		t.Errorf("mined %d large itemsets, want %d: %v", len(got), len(wantCounts), got)
	}
	for s, c := range wantCounts {
		if got[s] != c {
			t.Errorf("support(%s) = %d, want %d", s, got[s], c)
		}
	}
	if len(res.Levels) != 3 {
		t.Errorf("levels = %d, want 3", len(res.Levels))
	}
}

func TestMineOptionsValidation(t *testing.T) {
	for _, opt := range []Options{
		{MinSupport: 0},
		{MinSupport: -0.5},
		{MinSupport: 1.5},
		{MinSupport: math.NaN()},
		{MinSupport: 0.5, MaxK: -1},
	} {
		if _, err := Mine(classicDB(), opt); err == nil {
			t.Errorf("Options %+v accepted", opt)
		}
	}
}

func TestMineMaxK(t *testing.T) {
	res, err := Mine(classicDB(), Options{MinSupport: 0.5, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 {
		t.Errorf("MaxK=1 mined %d levels", len(res.Levels))
	}
}

func TestMineEmptyAndNoFrequent(t *testing.T) {
	res, err := Mine(txdb.FromItemsets(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 0 {
		t.Error("empty db produced itemsets")
	}
	// All items unique: nothing reaches 50%.
	db := txdb.FromItemsets([]item.Item{1}, []item.Item{2}, []item.Item{3})
	res, err = Mine(db, Options{MinSupport: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 0 {
		t.Errorf("Levels = %v", res.Levels)
	}
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		minSup float64
		n      int
		want   int
	}{
		{0.5, 4, 2},
		{0.5, 5, 3},   // ceil(2.5)
		{0.01, 10, 1}, // ceil(0.1) at least 1
		{1, 7, 7},
		{0.001, 100, 1},
	}
	for _, c := range cases {
		if got := MinCount(c.minSup, c.n); got != c.want {
			t.Errorf("MinCount(%v, %d) = %d, want %d", c.minSup, c.n, got, c.want)
		}
	}
}

func TestGen(t *testing.T) {
	// L2 = {12, 13, 14, 23, 24, 34} → C3 should be all 3-subsets of {1..4}.
	prev := []item.Itemset{
		item.New(1, 2), item.New(1, 3), item.New(1, 4),
		item.New(2, 3), item.New(2, 4), item.New(3, 4),
	}
	got := Gen(prev)
	want := []item.Itemset{
		item.New(1, 2, 3), item.New(1, 2, 4), item.New(1, 3, 4), item.New(2, 3, 4),
	}
	if len(got) != len(want) {
		t.Fatalf("Gen produced %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("Gen[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Prune: {1,2},{1,3} without {2,3} must not yield {1,2,3}.
	got = Gen([]item.Itemset{item.New(1, 2), item.New(1, 3)})
	if len(got) != 0 {
		t.Errorf("prune failed: %v", got)
	}
	if Gen(nil) != nil {
		t.Error("Gen(nil) non-nil")
	}
}

func TestGenOutputSorted(t *testing.T) {
	prev := []item.Itemset{
		item.New(1, 2), item.New(1, 3), item.New(1, 5),
		item.New(2, 3), item.New(2, 5), item.New(3, 5),
	}
	got := Gen(prev)
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("Gen output unsorted at %d: %v", i, got)
		}
	}
}

// bruteForce mines all frequent itemsets by enumerating subsets of each
// transaction — the correctness oracle.
func bruteForce(db *txdb.MemDB, minCount int) map[string]int {
	counts := map[string]int{}
	db.Scan(func(tx txdb.Transaction) error {
		tx.Items.AllSubsets(false, func(s item.Itemset) {
			counts[s.String()]++
		})
		return nil
	})
	for k, c := range counts {
		if c < minCount {
			delete(counts, k)
		}
	}
	return counts
}

func TestMineAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		db := &txdb.MemDB{}
		nTx := 40 + r.Intn(40)
		for i := 0; i < nTx; i++ {
			n := 1 + r.Intn(6)
			raw := make([]item.Item, n)
			for j := range raw {
				raw[j] = item.Item(r.Intn(12))
			}
			db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
		}
		minSup := 0.05 + r.Float64()*0.3
		res, err := Mine(db, Options{MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(db, res.MinCount)
		got := map[string]int{}
		for _, cs := range res.Large() {
			got[cs.Set.String()] = cs.Count
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: mined %d itemsets, want %d", trial, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("trial %d: %s count %d, want %d", trial, k, got[k], c)
			}
		}
	}
}

func TestMineParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := &txdb.MemDB{}
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(8)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = item.Item(r.Intn(25))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	seq, err := Mine(db, Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(db, Options{MinSupport: 0.05, Count: count.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := seq.Large(), par.Large()
	if len(a) != len(b) {
		t.Fatalf("parallel mined %d, sequential %d", len(b), len(a))
	}
	for i := range a {
		if !a[i].Set.Equal(b[i].Set) || a[i].Count != b[i].Count {
			t.Fatalf("mismatch at %d: %v/%d vs %v/%d", i, a[i].Set, a[i].Count, b[i].Set, b[i].Count)
		}
	}
}

func TestMineWithTransform(t *testing.T) {
	// A transform that maps every item to item%2 lets us test the hook.
	db := txdb.FromItemsets(
		[]item.Item{2, 4}, // → {0}
		[]item.Item{3, 5}, // → {1}
		[]item.Item{2, 3}, // → {0,1}
	)
	res, err := Mine(db, Options{
		MinSupport: 0.6,
		Count: count.Options{TransformInto: func(dst []item.Item, s item.Itemset) item.Itemset {
			for _, x := range s {
				dst = append(dst, x%2)
			}
			return item.SortDedup(dst)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, cs := range res.Large() {
		got[cs.Set.String()] = cs.Count
	}
	if got["{0}"] != 2 || got["{1}"] != 2 {
		t.Errorf("transformed counts = %v", got)
	}
}

func TestGenRulesClassic(t *testing.T) {
	res, err := Mine(classicDB(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenRules(res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Confidence-1 rules from the classic example.
	want := map[string]bool{
		"{1} => {3}":   true,
		"{2} => {5}":   true,
		"{5} => {2}":   true,
		"{2 3} => {5}": true,
		"{3 5} => {2}": true,
	}
	got := map[string]bool{}
	for _, r := range rules {
		got[r.Antecedent.String()+" => "+r.Consequent.String()] = true
		if r.Confidence < 1.0 {
			t.Errorf("rule %v has confidence %v < minConf", r, r.Confidence)
		}
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing rule %s (got %v)", w, got)
		}
	}
}

func TestGenRulesAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	db := &txdb.MemDB{}
	for i := 0; i < 80; i++ {
		n := 1 + r.Intn(5)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = item.Item(r.Intn(10))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	res, err := Mine(db, Options{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	minConf := 0.6
	rules, err := GenRules(res, minConf)
	if err != nil {
		t.Fatal(err)
	}
	wantRules := bruteForceRules(res, minConf)
	gotRules := map[string]float64{}
	for _, rl := range rules {
		gotRules[rl.Antecedent.String()+"=>"+rl.Consequent.String()] = rl.Confidence
	}
	if len(gotRules) != len(wantRules) {
		t.Fatalf("got %d rules, want %d", len(gotRules), len(wantRules))
	}
	for k, conf := range wantRules {
		if g, ok := gotRules[k]; !ok || g != conf {
			t.Errorf("rule %s: got conf %v (present=%v), want %v", k, g, ok, conf)
		}
	}
}

// bruteForceRules is every rule of res with confidence ≥ minConf, "A=>C" →
// confidence: every split of every large itemset.
func bruteForceRules(res *Result, minConf float64) map[string]float64 {
	wantRules := map[string]float64{}
	for _, cs := range res.Large() {
		if cs.Set.Len() < 2 {
			continue
		}
		cs.Set.AllSubsets(true, func(a item.Itemset) {
			ante := a.Clone()
			anteCount, _ := res.Table.Count(ante)
			conf := float64(cs.Count) / float64(anteCount)
			if conf >= minConf {
				cons := cs.Set.Minus(ante)
				wantRules[ante.String()+"=>"+cons.String()] = conf
			}
		})
	}
	return wantRules
}

func TestGenRulesValidation(t *testing.T) {
	res, _ := Mine(classicDB(), Options{MinSupport: 0.5})
	if _, err := GenRules(res, -0.1); err == nil {
		t.Error("negative minConf accepted")
	}
	if _, err := GenRules(res, 1.1); err == nil {
		t.Error("minConf > 1 accepted")
	}
	if _, err := GenRules(res, math.NaN()); err == nil {
		t.Error("NaN minConf accepted")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Antecedent: item.New(1), Consequent: item.New(2), Support: 0.5, Confidence: 0.75}
	if got := r.String(); got != "{1} => {2} (sup=0.5000 conf=0.7500)" {
		t.Errorf("String = %q", got)
	}
	name := func(i item.Item) string {
		return map[item.Item]string{1: "bread", 2: "milk"}[i]
	}
	if got := r.Format(name); got != "{bread} => {milk} (sup=0.5000 conf=0.7500)" {
		t.Errorf("Format = %q", got)
	}
}

func BenchmarkMineApriori(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	db := &txdb.MemDB{}
	for i := 0; i < 2000; i++ {
		n := 2 + r.Intn(8)
		raw := make([]item.Item, n)
		for j := range raw {
			raw[j] = item.Item(r.Intn(60))
		}
		db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, Options{MinSupport: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenPairsEqualsJoinPrune: at k = 2 the slab-carved pairs are the
// published join + prune (referenceJoinPrune), set for set and in order, on random L1s — of one
// item, of none, of many.
func TestGenPairsEqualsJoinPrune(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		var l1 []item.Itemset
		for x := 0; x < 60; x++ { // trial 0: no large item; trial 1: one
			if trial > 1 && r.Intn(3) == 0 || trial == 1 && x == 7 {
				l1 = append(l1, item.New(item.Item(x)))
			}
		}
		got := Gen(l1)
		var want []item.Itemset
		if len(l1) > 0 {
			want = referenceJoinPrune(l1)
		}
		if !slices.EqualFunc(got, want, item.Itemset.Equal) {
			t.Fatalf("trial %d: %d large items: pairs %v, join+prune %v", trial, len(l1), got, want)
		}
		// Carved from a slab, but not sharing it: appending to one pair
		// must not reach the next.
		if len(got) > 1 {
			next := got[1].Clone()
			_ = append(got[0], 999)
			if !got[1].Equal(next) {
				t.Fatalf("trial %d: appending to pair 0 overwrote pair 1", trial)
			}
		}
	}
}

// referenceJoinPrune is apriori-gen as published, over string keys: a map of
// prev's sets by String, and every (k-1)-subset of a joined candidate probed
// by its String.
// It is what joinPrune replaced, kept as the reference that Gen is held to.
func referenceJoinPrune(prev []item.Itemset) []item.Itemset {
	k1 := prev[0].Len() // k-1
	prevSet := make(map[string]struct{}, len(prev))
	for _, p := range prev {
		prevSet[p.String()] = struct{}{}
	}
	var out []item.Itemset
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			if !samePrefix(prev[i], prev[j], k1-1) {
				break
			}
			cand := prev[i].With(prev[j][k1-1])
			ok := true
			cand.Subsets(cand.Len()-1, func(sub item.Itemset) {
				if _, found := prevSet[sub.String()]; !found {
					ok = false
				}
			})
			if ok {
				out = append(out, cand)
			}
		}
	}
	return out
}

// randomLevel draws a sorted level of (k-1)-sets over a few items starting at
// base, every subset of that size kept with probability keep: with few items
// the sets share long prefixes, and a dense level leaves candidates that
// survive the prune as well as ones it removes.
func randomLevel(r *rand.Rand, k1 int, base item.Item, items int, keep float64) []item.Itemset {
	alphabet := make(item.Itemset, items)
	for i := range alphabet {
		alphabet[i] = base + item.Item(i)
	}
	var level []item.Itemset
	alphabet.Subsets(k1, func(sub item.Itemset) {
		if r.Float64() < keep {
			level = append(level, sub.Clone())
		}
	})
	return level
}

// TestGenMatchesReference: Gen returns the sets the published join + prune
// does, in the same order, on random sorted levels for k = 2…6 — over ids
// near 0 and near 2³¹, sparse levels and dense ones — and its candidates do
// not share a slab tail: appending to one does not reach the next.
func TestGenMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var kept, pruned int
	for trial := 0; trial < 400; trial++ {
		k := 2 + trial%5
		base := item.Item(r.Intn(3))
		if trial%2 == 1 {
			base = math.MaxInt32 - 16
		}
		level := randomLevel(r, k-1, base, k+2+r.Intn(6), []float64{0.3, 0.7, 0.95, 1}[r.Intn(4)])
		if len(level) == 0 {
			continue
		}
		got, want := Gen(level), referenceJoinPrune(level)
		if !slices.EqualFunc(got, want, item.Itemset.Equal) {
			t.Fatalf("trial %d, k = %d: Gen %v, reference %v over %v", trial, k, got, want, level)
		}
		kept += len(want)
		joined := 0
		forPairs(level, k-1, func(int, int) { joined++ })
		pruned += joined - len(want)
		for i := 0; i+1 < len(got); i++ {
			next := got[i+1].Clone()
			_ = append(got[i], base)
			if !got[i+1].Equal(next) {
				t.Fatalf("trial %d: appending to candidate %d overwrote the next", trial, i)
			}
		}
	}
	if kept < 1000 || pruned < 1000 {
		t.Fatalf("%d candidates kept, %d pruned: the levels lost their corners", kept, pruned)
	}
}

// TestGenAllocs pins Gen's allocations to a few tables, whatever the number
// of candidates: a level carved into ten times as many allocates no more than
// six times, as a small one does.
func TestGenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(7))
	for k := 2; k <= 5; k++ {
		small, large := randomLevel(r, k-1, 0, k+3, 1), randomLevel(r, k-1, 0, k+13, 1)
		if n, m := len(Gen(small)), len(Gen(large)); 10*n > m {
			t.Fatalf("k = %d: %d and %d candidates, want the second ten times the first", k, n, m)
		}
		a := testing.AllocsPerRun(5, func() { Gen(small) })
		b := testing.AllocsPerRun(5, func() { Gen(large) })
		if a > 6 || b > 6 {
			t.Fatalf("k = %d: Gen allocates %v times for %d candidates, %v for %d: want at most 6 for either", k, b, len(Gen(large)), a, len(Gen(small)))
		}
	}
}

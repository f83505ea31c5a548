package negative

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// fig1 builds the paper's Figure 1 taxonomy: A(B C), C(D E), F(G H I),
// G(J K), and a hand-made support table in which {C,G} is large.
func fig1(t *testing.T) (*taxonomy.Taxonomy, map[string]item.Item, *item.SupportTable, [][]item.CountedSet) {
	t.Helper()
	b := taxonomy.NewBuilder()
	for _, e := range [][2]string{
		{"A", "B"}, {"A", "C"}, {"C", "D"}, {"C", "E"},
		{"F", "G"}, {"F", "H"}, {"F", "I"}, {"G", "J"}, {"G", "K"},
	} {
		b.Link(e[0], e[1])
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]item.Item{}
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"} {
		ids[n], _ = tax.Dictionary().Lookup(n)
	}
	table := item.NewSupportTable(1000)
	counts := map[string]int{
		"A": 380, "B": 180, "C": 200, "D": 100, "E": 80,
		"F": 400, "G": 300, "H": 120, "I": 60, "J": 150, "K": 90,
	}
	var l1 []item.CountedSet
	for n, c := range counts {
		s := item.New(ids[n])
		table.Put(s, c)
		l1 = append(l1, item.CountedSet{Set: s, Count: c})
	}
	cg := item.New(ids["C"], ids["G"])
	table.Put(cg, 100)
	levels := [][]item.CountedSet{l1, {{Set: cg, Count: 100}}}
	return tax, ids, table, levels
}

func TestCandidateCasesFigure1(t *testing.T) {
	tax, ids, table, levels := fig1(t)
	// minSup·minRI tiny so nothing is pre-filtered.
	cands := GenerateCandidates(levels, table, tax, 0.001, 0.1, nil)

	set := func(a, b string) item.Key { return item.New(ids[a], ids[b]).Key() }
	got := map[item.Key]float64{}
	for _, c := range cands {
		got[c.Set.Key()] = c.Expected
	}
	supCG := 0.1
	want := map[item.Key]float64{
		// Case 1: both members replaced by children.
		set("D", "J"): supCG * (100.0 / 200) * (150.0 / 300),
		set("D", "K"): supCG * (100.0 / 200) * (90.0 / 300),
		set("E", "J"): supCG * (80.0 / 200) * (150.0 / 300),
		set("E", "K"): supCG * (80.0 / 200) * (90.0 / 300),
		// Case 2: one member replaced by a child.
		set("C", "J"): supCG * (150.0 / 300),
		set("C", "K"): supCG * (90.0 / 300),
		set("D", "G"): supCG * (100.0 / 200),
		set("E", "G"): supCG * (80.0 / 200),
		// Case 3: one member replaced by a sibling.
		set("C", "H"): supCG * (120.0 / 300),
		set("C", "I"): supCG * (60.0 / 300),
		set("B", "G"): supCG * (180.0 / 200),
	}
	for k, e := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing candidate %v", k.Itemset())
			continue
		}
		if math.Abs(g-e) > 1e-12 {
			t.Errorf("candidate %v expected support %v, want %v", k.Itemset(), g, e)
		}
	}
	// Exclusions (paper §2.1.1 list): all-sibling sets, ancestor mixes,
	// child+sibling mixes.
	for _, bad := range [][2]string{
		{"B", "H"}, // only siblings
		{"A", "J"}, // ancestor + child
		{"A", "H"}, // ancestor + sibling
		{"D", "H"}, // child + sibling
		{"C", "G"}, // the large itemset itself
	} {
		if _, ok := got[set(bad[0], bad[1])]; ok {
			t.Errorf("excluded combination {%s %s} was generated", bad[0], bad[1])
		}
	}
	if len(got) != len(want) {
		extra := []string{}
		for k := range got {
			if _, ok := want[k]; !ok {
				extra = append(extra, k.Itemset().String())
			}
		}
		t.Errorf("generated %d candidates, want %d; extra: %v", len(got), len(want), extra)
	}
}

func TestCandidatePreFilter(t *testing.T) {
	tax, _, table, levels := fig1(t)
	// With minSup=0.1, minRI=0.5 the floor is 0.05: only candidates with
	// expected support > 0.05 survive.
	cands := GenerateCandidates(levels, table, tax, 0.1, 0.5, nil)
	for _, c := range cands {
		if c.Expected <= 0.05 {
			t.Errorf("candidate %v with expected %v survived the 0.05 floor", c.Set, c.Expected)
		}
	}
	// {B,G} (0.09) and {C,J}(0.05 exactly → pruned, must be >) etc.
	found := false
	for _, c := range cands {
		if c.Expected > 0.05 {
			found = true
		}
	}
	if !found {
		t.Error("pre-filter removed everything")
	}
}

func TestCandidateSmallMembersRejected(t *testing.T) {
	tax, ids, table, levels := fig1(t)
	// Make J small by removing it from the table: no candidate may contain J.
	table2 := item.NewSupportTable(1000)
	table.Each(func(s item.Itemset, c int) {
		if !(s.Len() == 1 && s[0] == ids["J"]) {
			table2.Put(s, c)
		}
	})
	cands := GenerateCandidates(levels, table2, tax, 0.001, 0.1, nil)
	for _, c := range cands {
		if c.Set.Contains(ids["J"]) {
			t.Errorf("candidate %v contains small item J", c.Set)
		}
	}
}

func TestCandidateMaxMerge(t *testing.T) {
	// {B,G} can be generated from {C,G} (sibling replace, E=0.1·180/200)
	// and — if {B, F} were large — other ways; here we check the documented
	// duplicate policy using two large itemsets producing the same
	// candidate with different expectations.
	tax, ids, table, levels := fig1(t)
	// Add a second large itemset {A, G}: its case-2 children replacement
	// A→B yields {B,G} with expectation sup(AG)·sup(B)/sup(A).
	ag := item.New(ids["A"], ids["G"])
	table.Put(ag, 300)
	levels[1] = append(levels[1], item.CountedSet{Set: ag, Count: 300})
	cands := GenerateCandidates(levels, table, tax, 0.001, 0.1, nil)
	var bg *Candidate
	for i := range cands {
		if cands[i].Set.Equal(item.New(ids["B"], ids["G"])) {
			bg = &cands[i]
		}
	}
	if bg == nil {
		t.Fatal("candidate {B,G} missing")
	}
	fromCG := 0.1 * 180.0 / 200
	fromAG := 0.3 * 180.0 / 380
	want := math.Max(fromCG, fromAG)
	if math.Abs(bg.Expected-want) > 1e-12 {
		t.Errorf("{B,G} expected %v, want max(%v, %v)", bg.Expected, fromCG, fromAG)
	}
}

// paperExample builds the Figure 2 scenario as a concrete transaction
// database (1000 transactions; supports scaled 1:100 from the paper's
// tables, with the pair overlaps chosen to be realizable):
//
//	Bryers 200, HealthyChoice 100, Evian 120, Perrier 80,
//	FrozenYogurt 300, BottledWater 200,
//	{Bryers,Evian} 75, {Bryers,Perrier} 0,
//	{HealthyChoice,Evian} 42, {HealthyChoice,Perrier} 25.
func paperExample(t testing.TB) (*taxonomy.Taxonomy, map[string]item.Item, *txdb.MemDB) {
	b := taxonomy.NewBuilder()
	for _, e := range [][2]string{
		{"noncarbonated", "bottledjuices"},
		{"noncarbonated", "bottledwater"},
		{"bottledwater", "perrier"},
		{"bottledwater", "evian"},
		{"desserts", "frozenyogurt"},
		{"desserts", "icecreams"},
		{"frozenyogurt", "bryers"},
		{"frozenyogurt", "healthychoice"},
	} {
		b.Link(e[0], e[1])
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]item.Item{}
	for _, n := range []string{"bryers", "healthychoice", "evian", "perrier",
		"frozenyogurt", "bottledwater", "desserts", "noncarbonated"} {
		id, ok := tax.Dictionary().Lookup(n)
		if !ok {
			t.Fatalf("missing %s", n)
		}
		ids[n] = id
	}
	db := &txdb.MemDB{}
	add := func(n int, names ...string) {
		for i := 0; i < n; i++ {
			items := make([]item.Item, len(names))
			for j, nm := range names {
				items[j] = ids[nm]
			}
			db.Append(txdb.Transaction{TID: int64(db.Count() + 1), Items: item.New(items...)})
		}
	}
	add(75, "bryers", "evian")
	add(125, "bryers")
	add(42, "healthychoice", "evian")
	add(25, "healthychoice", "perrier")
	add(33, "healthychoice")
	add(3, "evian")
	add(55, "perrier")
	add(642) // empty filler transactions to reach N = 1000
	return tax, ids, db
}

func TestPaperWorkedExample(t *testing.T) {
	tax, ids, db := paperExample(t)
	if db.Count() != 1000 {
		t.Fatalf("db size = %d", db.Count())
	}
	for _, alg := range []Algorithm{Improved, Naive} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Mine(db, tax, Options{
				MinSupport: 0.04, // the paper's 4,000 of 100,000
				MinRI:      0.5,
				Algorithm:  alg,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Sanity: stage-1 supports match the construction.
			for name, want := range map[string]int{
				"bryers": 200, "healthychoice": 100, "evian": 120, "perrier": 80,
				"frozenyogurt": 300, "bottledwater": 200, "desserts": 300, "noncarbonated": 200,
			} {
				got, ok := res.Large.Table.Count(item.New(ids[name]))
				if !ok || got != want {
					t.Errorf("sup(%s) = %d (ok=%v), want %d", name, got, ok, want)
				}
			}
			fyv, _ := res.Large.Table.Count(item.New(ids["frozenyogurt"], ids["bottledwater"]))
			if fyv != 142 {
				t.Errorf("sup(frozenyogurt,bottledwater) = %d, want 142", fyv)
			}

			// Negative itemsets: {bryers,perrier}, {frozenyogurt,perrier}
			// and {desserts,perrier} (paper Examples 1 and 3).
			wantNegs := map[item.Key]struct{ expected, actual float64 }{
				item.New(ids["bryers"], ids["perrier"]).Key():       {0.05, 0},      // sibling path: 0.075·(80/120)
				item.New(ids["frozenyogurt"], ids["perrier"]).Key(): {0.078, 0.025}, // from {FY,evian}: 0.117·(2/3)
				item.New(ids["desserts"], ids["perrier"]).Key():     {0.078, 0.025}, // from {desserts,evian}
			}
			if len(res.Negatives) != len(wantNegs) {
				var got []string
				for _, n := range res.Negatives {
					got = append(got, n.Set.Format(tax.Name))
				}
				t.Fatalf("negatives = %v, want 3", got)
			}
			for _, n := range res.Negatives {
				w, ok := wantNegs[n.Set.Key()]
				if !ok {
					t.Errorf("unexpected negative itemset %s", n.Set.Format(tax.Name))
					continue
				}
				if math.Abs(n.Expected-w.expected) > 1e-9 {
					t.Errorf("%s expected support %v, want %v", n.Set.Format(tax.Name), n.Expected, w.expected)
				}
				if math.Abs(n.Actual()-w.actual) > 1e-9 {
					t.Errorf("%s actual support %v, want %v", n.Set.Format(tax.Name), n.Actual(), w.actual)
				}
			}

			// Rules: the paper's headline rule Perrier =/=> Bryers plus the
			// two Example-3-style category rules.
			type wantRule struct{ ri float64 }
			wantRules := map[string]wantRule{
				"{perrier} =/=> {bryers}":       {0.05 / 0.08},
				"{perrier} =/=> {frozenyogurt}": {0.053 / 0.08},
				"{perrier} =/=> {desserts}":     {0.053 / 0.08},
			}
			if len(res.Rules) != len(wantRules) {
				var got []string
				for _, r := range res.Rules {
					got = append(got, r.Format(tax.Name))
				}
				t.Fatalf("rules = %v, want %d", got, len(wantRules))
			}
			for _, r := range res.Rules {
				key := r.Antecedent.Format(tax.Name) + " =/=> " + r.Consequent.Format(tax.Name)
				w, ok := wantRules[key]
				if !ok {
					t.Errorf("unexpected rule %s", r.Format(tax.Name))
					continue
				}
				if math.Abs(r.RI-w.ri) > 1e-9 {
					t.Errorf("rule %s RI = %v, want %v", key, r.RI, w.ri)
				}
				if r.RI < 0.5 {
					t.Errorf("rule %s below MinRI", key)
				}
			}
			// The reverse rule must NOT appear (paper: Bryers =/=> Perrier
			// has RI 0.25 < 0.5).
			for _, r := range res.Rules {
				if r.Antecedent.Contains(ids["bryers"]) {
					t.Errorf("reverse rule emitted: %s", r.Format(tax.Name))
				}
			}
		})
	}
}

func TestNaiveAndImprovedAgree(t *testing.T) {
	tax, _, db := paperExample(t)
	a, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Algorithm: Improved})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Negatives) != len(b.Negatives) {
		t.Fatalf("negatives: %d vs %d", len(a.Negatives), len(b.Negatives))
	}
	for i := range a.Negatives {
		x, y := a.Negatives[i], b.Negatives[i]
		if !x.Set.Equal(y.Set) || x.Count != y.Count || math.Abs(x.Expected-y.Expected) > 1e-12 {
			t.Errorf("negative %d differs: %+v vs %+v", i, x, y)
		}
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rules: %d vs %d", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		x, y := a.Rules[i], b.Rules[i]
		if !x.Antecedent.Equal(y.Antecedent) || !x.Consequent.Equal(y.Consequent) || math.Abs(x.RI-y.RI) > 1e-12 {
			t.Errorf("rule %d differs: %v vs %v", i, x, y)
		}
	}
}

// threeLevels is a database whose large itemsets reach size 3 and stop
// there (every large 3-itemset is {a,b,c} with members swapped for their
// categories, so C4 is empty), with negative itemsets and rules at 25 % /
// 0.3: the fixture for pass counts, which need n ≥ 3 to tell "n+1" from "2".
func threeLevels(t testing.TB) (*taxonomy.Taxonomy, *txdb.MemDB, Options) {
	t.Helper()
	b := taxonomy.NewBuilder()
	for _, e := range [][2]string{{"X", "a"}, {"X", "a2"}, {"Y", "b"}, {"Y", "b2"}, {"Z", "c"}, {"Z", "c2"}} {
		b.Link(e[0], e[1])
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &txdb.MemDB{}
	for _, g := range []struct {
		n     int
		names []string
	}{
		{30, []string{"a", "b", "c"}}, {15, []string{"a2", "b2"}}, {15, []string{"b2", "c2"}},
		{10, []string{"a2", "c2"}}, {10, []string{"a"}}, {10, []string{"b"}}, {10, []string{"c"}},
	} {
		for i := 0; i < g.n; i++ {
			db.Append(txdb.Transaction{TID: int64(db.Count() + 1), Items: tax.Dictionary().InternSet(g.names...)})
		}
	}
	return tax, db, Options{MinSupport: 0.25, MinRI: 0.3}
}

// sameMined fails unless two runs decided the same thing: large itemsets
// with their counts, negative itemsets, rules and every measure on them.
func sameMined(t testing.TB, what string, got, want *Result) {
	t.Helper()
	if !slices.EqualFunc(got.Large.Levels, want.Large.Levels, func(a, b []item.CountedSet) bool {
		return slices.EqualFunc(a, b, func(x, y item.CountedSet) bool { return x.Set.Equal(y.Set) && x.Count == y.Count })
	}) {
		t.Fatalf("%s: large itemsets differ", what)
	}
	if !slices.EqualFunc(got.Negatives, want.Negatives, func(x, y Itemset) bool {
		return x.Set.Equal(y.Set) && x.Expected == y.Expected && x.Count == y.Count && x.N == y.N && x.Source.Equal(y.Source) && x.Via == y.Via
	}) {
		t.Fatalf("%s: negative itemsets differ", what)
	}
	if !slices.EqualFunc(got.Rules, want.Rules, func(x, y Rule) bool {
		return x.Antecedent.Equal(y.Antecedent) && x.Consequent.Equal(y.Consequent) && x.RI == y.RI &&
			x.Expected == y.Expected && x.Actual == y.Actual && x.NegConfidence == y.NegConfidence
	}) {
		t.Fatalf("%s: rules differ", what)
	}
}

func TestPassComplexity(t *testing.T) {
	// The paper's claim: Naive = 2n passes, Improved = n+1 passes, where n
	// is the number of large-itemset levels. Our Naive skips the useless
	// level-1 negative pass, so it makes 2n−1. The hash tree — the paper's
	// scan engine — keeps that accounting. The bitmap engine indexes the
	// database with two scans and counts every later pass from rows,
	// whatever n and whichever driver; when the budget does not grant the
	// rows it is back to one scan per pass, with the same output.
	tax, db, base := threeLevels(t)
	ins := txdb.Instrument(db)
	const n = 3
	rows := bitmat.EstimateBytes(db.Count(), 9) // all nine nodes are large
	for _, alg := range []Algorithm{Improved, Naive} {
		perPass := n + 1
		if alg == Naive {
			perPass = 2*n - 1
		}
		var want *Result
		for _, tc := range []struct {
			name    string
			backend count.Backend
			mem     *govern.Budget
			passes  int
		}{
			{"hashtree", count.BackendHashTree, nil, perPass},
			{"auto", count.BackendAuto, nil, 2},
			{"bitmap", count.BackendBitmap, nil, 2},
			{"auto with room for the rows", count.BackendAuto, govern.NewBudget(rows), 2},
			{"auto without", count.BackendAuto, govern.NewBudget(rows - 1), perPass},
		} {
			opt := base
			opt.Algorithm = alg
			opt.Count.Backend, opt.Gen.Count.Backend = tc.backend, tc.backend
			opt.Count.Mem, opt.Gen.Count.Mem = tc.mem, tc.mem
			ins.Reset()
			res, err := Mine(ins, tax, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Large.Levels) != n || len(res.Negatives) == 0 || len(res.Rules) == 0 {
				t.Fatalf("%d levels, %d negatives, %d rules; want %d levels and some of each (test setup)",
					len(res.Large.Levels), len(res.Negatives), len(res.Rules), n)
			}
			if got := ins.Passes(); got != tc.passes {
				t.Errorf("%v %s: %d passes, want %d", alg, tc.name, got, tc.passes)
			}
			if want == nil {
				want = res
			}
			sameMined(t, alg.String()+" "+tc.name, res, want)
			// The rows are reserved once — what the C2 pass alone used to
			// reserve — not once per pass, and given back.
			if hw := tc.mem.HighWater(); hw > rows || tc.mem.InUse() != 0 {
				t.Errorf("%v %s: high water %d of %d, %d still reserved", alg, tc.name, hw, rows, tc.mem.InUse())
			}
		}
	}
}

// TestHashTreeMineBuildsNoIndex: with BackendHashTree in both Count and
// Gen.Count the mine stays the independent oracle the benchmark's
// hashtree-oracle check needs — the database is scanned once per pass and no
// pass is handed an Indexed database, so no count comes from rows.
func TestHashTreeMineBuildsNoIndex(t *testing.T) {
	tax, db, opt := threeLevels(t)
	opt.Count.Backend, opt.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
	ins := txdb.Instrument(db)
	large, err := gen.Mine(ins, tax, gen.Options{MinSupport: opt.MinSupport, Count: opt.Gen.Count})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Passes() != len(large.Levels) {
		t.Fatalf("gen.Mine on the hash tree: %d passes for %d levels", ins.Passes(), len(large.Levels))
	}
	ins.Reset()
	res, err := Mine(ins, tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Passes() != len(res.Large.Levels)+1 || res.Timing.Index != 0 {
		t.Fatalf("%d passes for %d levels, Timing.Index %v: an index was built", ins.Passes(), len(res.Large.Levels), res.Timing.Index)
	}
	// Pinning only the negative passes keeps them off stage 1's index too.
	opt.Gen.Count.Backend = count.BackendAuto
	ins.Reset()
	mixed, err := Mine(ins, tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Passes() != 3 {
		t.Fatalf("indexed stage 1 + hash-tree negative pass: %d passes, want 2 + 1", ins.Passes())
	}
	sameMined(t, "mixed backends", mixed, res)
}

// TestTimingParts: Timing's per-step durations are what an operator reads to
// see where a re-mine went, so they must account for all of Negative.
func TestTimingParts(t *testing.T) {
	tax, _, db := paperExample(t)
	for _, alg := range []Algorithm{Improved, Naive} {
		res, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		sum := time.Duration(0)
		for _, d := range []time.Duration{tm.Restrict, tm.CandGen, tm.Count, tm.RuleGen} {
			if d < 0 {
				t.Errorf("%v: negative part in %+v", alg, tm)
			}
			sum += d
		}
		if sum == 0 || sum > tm.Negative || tm.Negative-sum > time.Millisecond {
			t.Errorf("%v: parts add up to %v of Negative = %v (%+v)", alg, sum, tm.Negative, tm)
		}
		// The index build is the first part of stage 1 — and no part of it
		// when the pass options ask for scans.
		if tm.Pass1 <= 0 || tm.Pass1 > tm.Index || tm.Index > tm.Stage1 {
			t.Errorf("%v: Pass1 = %v of Index = %v of Stage1 = %v", alg, tm.Pass1, tm.Index, tm.Stage1)
		}
		scan := Options{MinSupport: 0.04, MinRI: 0.5, Algorithm: alg}
		scan.Count.Backend, scan.Gen.Count.Backend = count.BackendHashTree, count.BackendHashTree
		if res, err = Mine(db, tax, scan); err != nil || res.Timing.Index != 0 || res.Timing.Pass1 != 0 || res.Timing.Stage1 <= 0 {
			t.Errorf("%v on the hash tree: Timing %+v (err %v), want no Index", alg, res.Timing, err)
		}
	}
}

func TestMemoryBoundedCounting(t *testing.T) {
	// With MaxCandidates=1 the improved algorithm must still produce the
	// same result: on the hash tree with one more database pass per batch,
	// from the index with the same two scans.
	tax, db, base := threeLevels(t)
	ins := txdb.Instrument(db)
	for _, backend := range []count.Backend{count.BackendHashTree, count.BackendAuto} {
		opt := base
		opt.Count.Backend, opt.Gen.Count.Backend = backend, backend
		ins.Reset()
		full, err := Mine(ins, tax, opt)
		if err != nil {
			t.Fatal(err)
		}
		unbounded := ins.Passes()
		opt.MaxCandidates = 1
		ins.Reset()
		bounded, err := Mine(ins, tax, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameMined(t, backend.String()+" bounded", bounded, full)
		want := 2
		if backend == count.BackendHashTree {
			want = unbounded - 1 + full.TotalCandidates()
		}
		if full.TotalCandidates() < 2 || ins.Passes() != want {
			t.Errorf("%v: bounded run used %d passes for %d candidates, want %d (unbounded: %d)",
				backend, ins.Passes(), full.TotalCandidates(), want, unbounded)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	tax, _, db := paperExample(t)
	bad := []Options{
		{MinSupport: 0, MinRI: 0.5},
		{MinSupport: 1.5, MinRI: 0.5},
		{MinSupport: 0.1, MinRI: 0},
		{MinSupport: 0.1, MinRI: -1},
		{MinSupport: 0.1, MinRI: 0.5, MaxCandidates: -1},
		{MinSupport: 0.1, MinRI: 0.5, Algorithm: Algorithm(9)},
	}
	for i, opt := range bad {
		if _, err := Mine(db, tax, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if _, err := Mine(db, nil, Options{MinSupport: 0.1, MinRI: 0.5}); err == nil {
		t.Error("nil taxonomy accepted")
	}
}

func TestEmptyResults(t *testing.T) {
	tax, _, db := paperExample(t)
	// Impossibly high support: no large itemsets, no negatives, no rules.
	res, err := Mine(db, tax, Options{MinSupport: 0.99, MinRI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Negatives) != 0 || len(res.Rules) != 0 || res.TotalCandidates() != 0 {
		t.Errorf("high-support run produced output: %+v", res)
	}
	// Empty database.
	res, err = Mine(txdb.FromItemsets(), tax, Options{MinSupport: 0.5, MinRI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Negatives) != 0 {
		t.Error("empty db produced negatives")
	}
}

func TestEstimateCandidates(t *testing.T) {
	// k=2, f=3: C(2,1)·3 + C(2,2)·9 + 2·(3−1) = 6+9+4 = 19.
	if got := EstimateCandidates(2, 3); got != 19 {
		t.Errorf("EstimateCandidates(2,3) = %v, want 19", got)
	}
	// k=1, f=5: C(1,1)·5 + 1·4 = 9.
	if got := EstimateCandidates(1, 5); got != 9 {
		t.Errorf("EstimateCandidates(1,5) = %v, want 9", got)
	}
	// Growth in fanout and size.
	if EstimateCandidates(3, 9) <= EstimateCandidates(3, 3) {
		t.Error("estimate not increasing in fanout")
	}
	if EstimateCandidates(4, 3) <= EstimateCandidates(2, 3) {
		t.Error("estimate not increasing in size")
	}
}

func TestItemsetAccessors(t *testing.T) {
	n := Itemset{Set: item.New(1, 2), Expected: 0.1, Count: 30, N: 1000}
	if got := n.Actual(); got != 0.03 {
		t.Errorf("Actual = %v", got)
	}
	if got := n.Deviation(); math.Abs(got-0.07) > 1e-12 {
		t.Errorf("Deviation = %v", got)
	}
	z := Itemset{Set: item.New(1), Expected: 0.5}
	if z.Actual() != 0 {
		t.Error("zero-N Actual should be 0")
	}
}

func TestRuleStrings(t *testing.T) {
	r := Rule{Antecedent: item.New(1), Consequent: item.New(2), RI: 0.625, Expected: 0.05, Actual: 0}
	want := "{1} =/=> {2} (RI=0.6250 exp=0.0500 act=0.0000)"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if Improved.String() != "Better" || Naive.String() != "Naive" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(7).String() != "Algorithm(7)" {
		t.Error("unknown algorithm name wrong")
	}
}

func TestGenerateRulesPruning(t *testing.T) {
	// Hand-built scenario exercising the consequent-growth pruning: a
	// 3-item negative itemset where only some antecedents qualify.
	table := item.NewSupportTable(1000)
	a, b, c := item.Item(1), item.Item(2), item.Item(3)
	table.Put(item.New(a), 100)
	table.Put(item.New(b), 200)
	table.Put(item.New(c), 400)
	table.Put(item.New(a, b), 80)
	table.Put(item.New(a, c), 90)
	table.Put(item.New(b, c), 150)
	neg := Itemset{Set: item.New(a, b, c), Expected: 0.06, Count: 0, N: 1000}
	rules := generateRules([]Itemset{neg}, table, 0.5)
	// Deviation = 0.06. RI per antecedent: {a,b}: 0.06/0.08 = 0.75 ✓;
	// {a,c}: 0.06/0.09 ≈ 0.667 ✓; {b,c}: 0.06/0.15 = 0.4 ✗;
	// {a}: 0.06/0.1 = 0.6 ✓; {b}: 0.3 ✗; {c}: 0.15 ✗.
	want := map[string]float64{
		"{1 2} =/=> {3}": 0.75,
		"{1 3} =/=> {2}": 0.06 / 0.09,
		"{1} =/=> {2 3}": 0.6,
	}
	if len(rules) != len(want) {
		t.Fatalf("rules = %v, want %d", rules, len(want))
	}
	for _, r := range rules {
		key := r.Antecedent.String() + " =/=> " + r.Consequent.String()
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected rule %s", key)
			continue
		}
		if math.Abs(r.RI-w) > 1e-12 {
			t.Errorf("rule %s RI = %v, want %v", key, r.RI, w)
		}
	}
}

func TestGenerateRulesSmallPartsExcluded(t *testing.T) {
	// Consequent or antecedent missing from the table (= small) blocks the
	// rule.
	table := item.NewSupportTable(1000)
	a, b := item.Item(1), item.Item(2)
	table.Put(item.New(a), 100)
	// b is small: no entry.
	neg := Itemset{Set: item.New(a, b), Expected: 0.2, Count: 0, N: 1000}
	rules := generateRules([]Itemset{neg}, table, 0.1)
	if len(rules) != 0 {
		t.Errorf("rules with small parts emitted: %v", rules)
	}
}

func TestNegConfidence(t *testing.T) {
	// For the worked example's headline rule, every Perrier basket avoids
	// Bryers: NegConfidence must be exactly 1. For {perrier} =/=>
	// {frozenyogurt}: sup(perrier)=0.08, actual 0.025 → 1 − 0.025/0.08.
	tax, ids, db := paperExample(t)
	res, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		switch {
		case r.Consequent.Equal(item.New(ids["bryers"])):
			if r.NegConfidence != 1 {
				t.Errorf("perrier=/=>bryers NegConfidence = %v, want 1", r.NegConfidence)
			}
		case r.Consequent.Equal(item.New(ids["frozenyogurt"])):
			want := 1 - 0.025/0.08
			if math.Abs(r.NegConfidence-want) > 1e-9 {
				t.Errorf("perrier=/=>frozenyogurt NegConfidence = %v, want %v", r.NegConfidence, want)
			}
		}
	}
}

func TestProvenance(t *testing.T) {
	// The winning generation path of {bryers,perrier} in the worked
	// example is the sibling replacement evian→perrier applied to the
	// large itemset {bryers,evian} (it yields the max expected support).
	tax, ids, db := paperExample(t)
	res, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	target := item.New(ids["bryers"], ids["perrier"])
	for _, n := range res.Negatives {
		if !n.Set.Equal(target) {
			continue
		}
		if !n.Source.Equal(item.New(ids["bryers"], ids["evian"])) {
			t.Errorf("source = %s, want {bryers evian}", n.Source.Format(tax.Name))
		}
		if n.Via != ViaSiblings {
			t.Errorf("via = %v, want siblings", n.Via)
		}
	}
	// Provenance flows into rules.
	for _, r := range res.Rules {
		if r.Source.Empty() {
			t.Errorf("rule %v missing provenance", r)
		}
	}
	if ViaChildren.String() != "children" || ViaSiblings.String() != "siblings" {
		t.Error("mode names wrong")
	}
}

func TestFilterVariants(t *testing.T) {
	tax, ids, db := paperExample(t)
	dev, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Filter: DeviationFilter})
	if err != nil {
		t.Fatal(err)
	}
	abs, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Filter: AbsoluteFilter})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's threshold here is 0.02 (= 20 of 1,000 transactions):
	// {bryers,perrier} (count 0) qualifies under both; {perrier,
	// frozenyogurt} (count 25 → 0.025) qualifies only under the deviation
	// test.
	bp := item.New(ids["bryers"], ids["perrier"])
	fp := item.New(ids["perrier"], ids["frozenyogurt"])
	has := func(res *Result, s item.Itemset) bool {
		for _, n := range res.Negatives {
			if n.Set.Equal(s) {
				return true
			}
		}
		return false
	}
	if !has(dev, bp) || !has(abs, bp) {
		t.Error("{bryers,perrier} missing under some filter")
	}
	if !has(dev, fp) {
		t.Error("deviation filter lost {perrier,frozenyogurt}")
	}
	if has(abs, fp) {
		t.Error("absolute filter accepted {perrier,frozenyogurt} (count 25 ≥ 20)")
	}
	// Both still produce the headline rule.
	for name, res := range map[string]*Result{"dev": dev, "abs": abs} {
		found := false
		for _, r := range res.Rules {
			if r.Consequent.Equal(item.New(ids["bryers"])) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s filter lost the headline rule", name)
		}
	}
	if DeviationFilter.String() != "deviation" || AbsoluteFilter.String() != "absolute" {
		t.Error("filter names wrong")
	}
	if _, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5, Filter: Filter(9)}); err == nil {
		t.Error("unknown filter accepted")
	}
}

func TestExplain(t *testing.T) {
	tax, ids, db := paperExample(t)
	res, err := Mine(db, tax, Options{MinSupport: 0.04, MinRI: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var headline *Rule
	for i := range res.Rules {
		if res.Rules[i].Consequent.Equal(item.New(ids["bryers"])) {
			headline = &res.Rules[i]
		}
	}
	if headline == nil {
		t.Fatal("headline rule missing")
	}
	text := Explain(*headline, res.Large.Table, tax.Name)
	for _, want := range []string{
		"rule: {perrier} =/=> {bryers}",
		"derived from the large itemset {evian bryers} via siblings replacement",
		"swap evian → perrier",
		"expected sup({perrier bryers}) = 0.0500",
		"actual   sup({perrier bryers}) = 0.0000",
		"RI = (0.0500 − 0.0000) / sup({perrier})=0.0800 = 0.6250",
		"100.0% of {perrier} baskets contain no {bryers}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
}

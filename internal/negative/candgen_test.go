package negative

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/stats"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// candgenCase is one random input for GenerateCandidates.
type candgenCase struct {
	tax         *taxonomy.Taxonomy
	table       *item.Table
	levels      [][]item.CountedSet
	substitutes []item.Itemset
	minSup      float64
	minRI       float64
}

// randomCandgenCase draws a small forest and a hand-made support table that
// together reach every branch of the generator: several roots (roots are
// each other's siblings), single-child categories, items the table knows but
// the taxonomy does not (ids ≥ tax.Size()), 1-itemsets that are absent or
// recorded with a zero count, large itemsets that pair an item with its own
// ancestor, substitute groups across all of those, and counts drawn from a
// handful of values so that different sources reach the same candidate with
// exactly equal expectations.
func randomCandgenCase(t *testing.T, r *rand.Rand) candgenCase {
	t.Helper()
	b := taxonomy.NewBuilder()
	n := 6 + r.Intn(20)
	for i := 0; i < n; i++ {
		name := "n" + strconv.Itoa(i)
		if i < 2 || r.Intn(5) == 0 {
			b.Node(name) // another root
			continue
		}
		b.Link("n"+strconv.Itoa(r.Intn(i)), name)
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	total := 1000
	if r.Intn(50) == 0 {
		total = 0
	}
	counts := []int{0, 100, 100, 200, 200, 400, 800}
	pool := make([]item.Item, 0, n+3) // items that may appear in large itemsets
	var l1 []item.CountedSet
	for x := item.Item(0); int(x) < n+3; x++ { // the last three ids are off-taxonomy
		if r.Intn(6) == 0 {
			if r.Intn(2) == 0 {
				pool = append(pool, x) // a member that is not large
			}
			continue
		}
		l1 = append(l1, item.CountedSet{Set: item.Itemset{x}, Count: counts[r.Intn(len(counts))]})
		pool = append(pool, x)
	}
	levels := [][]item.CountedSet{l1}
	for k := 2; k <= 4; k++ {
		var lk []item.CountedSet
		for i := r.Intn(12 >> (k - 2)); i > 0; i-- {
			raw := make([]item.Item, k)
			for j := range raw {
				raw[j] = pool[r.Intn(len(pool))]
			}
			set := item.New(raw...)
			if set.Len() != k || slices.ContainsFunc(lk, func(cs item.CountedSet) bool { return cs.Set.Equal(set) }) {
				continue
			}
			lk = append(lk, item.CountedSet{Set: set, Count: counts[r.Intn(len(counts))] / 2})
		}
		levels = append(levels, lk)
	}
	var subs []item.Itemset
	for i := r.Intn(3); i > 0; i-- {
		g := item.New(item.Item(r.Intn(n+3)), item.Item(r.Intn(n+3)), item.Item(r.Intn(n+3)))
		if g.Len() >= 2 {
			subs = append(subs, g)
		}
	}
	return candgenCase{tax, tableOf(total, levels), levels, subs, []float64{0.01, 0.05}[r.Intn(2)], []float64{0.1, 0.5}[r.Intn(2)]}
}

// tableOf indexes levels over total transactions, as a stage-1 result does.
func tableOf(total int, levels [][]item.CountedSet) *item.Table {
	t := item.NewTable(total)
	for _, lvl := range levels {
		t.Append(lvl)
	}
	return t
}

// supports is c's 1-item supports over tax as the generator reads them, off
// its L1.
func (c candgenCase) supports(tax *taxonomy.Taxonomy) []float64 {
	return levelSupports(c.levels[0], c.table.Total(), tax.Size())
}

// listed is a generation's candidates sorted by set, as GenerateCandidates
// hands them out, and its walk.
func listed(c *generated) ([]Candidate, WalkStats) { return c.list(), c.walk }

// candidates gathers what gens recorded as generateCandidates does, each
// generator's records sorted, the runs merged.
func candidates(gens []*generator) *generated {
	runs := make([]*generated, len(gens))
	for w, g := range gens {
		runs[w] = g.sorted()
	}
	return merge(runs)
}

func sameCandidates(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return x.Set.Equal(y.Set) && x.Expected == y.Expected && x.Source.Equal(y.Source) && x.Via == y.Via
	})
}

// TestGenerateCandidatesMatchesReference holds the dense kernel to the
// generator it replaced, element for element and bit for bit, against both
// the full taxonomy, as the mining drivers pass it, and the one restricted to
// the large items, which re-roots the large children of a small node (the
// corpus's L1 is not ancestor-closed, as a mined one is).
func TestGenerateCandidatesMatchesReference(t *testing.T) {
	var total, ties, siblings, offTaxonomy int
	for seed := int64(1); seed <= 600; seed++ {
		c := randomCandgenCase(t, rand.New(rand.NewSource(seed)))
		restricted := c.tax.Restrict(func(x item.Item) bool { return c.table.Contains(item.Itemset{x}) })
		var want []Candidate
		for _, tax := range []*taxonomy.Taxonomy{restricted, c.tax} {
			want = referenceCandidates(c.levels, c.table, tax, c.minSup, c.minRI, c.substitutes)
			got := GenerateCandidates(c.levels, c.table, tax, c.minSup, c.minRI, c.substitutes)
			if !sameCandidates(got, want) {
				t.Fatalf("seed %d: kernel and reference disagree\n got  %v\n want %v", seed, got, want)
			}
		}

		// What the corpus covered, counted on the full taxonomy's candidates.
		// A tie shows as a candidate whose source depends on the order the
		// large itemsets are visited in.
		flipped := make([][]item.CountedSet, len(c.levels))
		for i, lvl := range c.levels {
			flipped[i] = slices.Clone(lvl)
			slices.Reverse(flipped[i])
		}
		for i, f := range referenceCandidates(flipped, c.table, c.tax, c.minSup, c.minRI, c.substitutes) {
			if f.Expected == want[i].Expected && !f.Source.Equal(want[i].Source) {
				ties++
			}
		}
		for _, w := range want {
			total++
			if w.Via == ViaSiblings {
				siblings++
			}
			if int(w.Set[len(w.Set)-1]) >= c.tax.Size() {
				offTaxonomy++
			}
		}
	}
	t.Logf("%d candidates: %d via siblings, %d with an off-taxonomy member, %d tied between sources", total, siblings, offTaxonomy, ties)
	if total < 5000 || siblings == 0 || offTaxonomy == 0 || ties == 0 {
		t.Fatal("the random corpus no longer reaches every branch of the generator")
	}
}

// namedSet is a large itemset of named members with its count.
type namedSet struct {
	count int
	names []string
}

// namedCase builds a case over 1 024 transactions from named nodes: links
// parent → child, further roots, the large itemsets in level order and the
// substitute groups. set returns the itemset of the named members.
func namedCase(t *testing.T, links [][2]string, roots []string, large []namedSet, subs [][]string) (c candgenCase, set func(...string) item.Itemset) {
	t.Helper()
	b := taxonomy.NewBuilder()
	for _, e := range links {
		b.Link(e[0], e[1])
	}
	for _, r := range roots {
		b.Node(r)
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set = func(names ...string) item.Itemset {
		raw := make([]item.Item, len(names))
		for i, n := range names {
			x, ok := tax.Dictionary().Lookup(n)
			if !ok {
				t.Fatalf("no node %s", n)
			}
			raw[i] = x
		}
		return item.New(raw...)
	}
	c = candgenCase{tax: tax, minSup: 0.01, minRI: 0.1}
	for _, l := range large {
		s := set(l.names...)
		for len(c.levels) < len(s) {
			c.levels = append(c.levels, nil)
		}
		c.levels[len(s)-1] = append(c.levels[len(s)-1], item.CountedSet{Set: s, Count: l.count})
	}
	c.table = tableOf(1024, c.levels)
	for _, g := range subs {
		c.substitutes = append(c.substitutes, set(g...))
	}
	return c, set
}

// tieCase builds the corners where the worker count could show, on counts that
// are powers of two so that equal expectations are equal float64s: a candidate
// two sources reach with one expectation; one a single source reaches through
// its children and, a declared substitute being that child, through its
// siblings; one a third source reaches through siblings with that same
// expectation; and one a single source reaches twice within sibling mode.
func tieCase(t *testing.T) (candgenCase, func(...string) item.Itemset) {
	t.Helper()
	return namedCase(t, [][2]string{{"P", "a"}, {"P", "b"}, {"P", "d"}, {"Q", "c"}, {"Q", "e"}}, []string{"x", "y", "z", "w"},
		[]namedSet{
			{512, []string{"P"}}, {256, []string{"a"}}, {256, []string{"b"}}, {128, []string{"d"}}, {512, []string{"Q"}}, {512, []string{"c"}},
			{64, []string{"e"}}, {256, []string{"x"}}, {256, []string{"y"}}, {128, []string{"z"}}, {512, []string{"w"}},
			{128, []string{"a", "c"}}, // → {c d} through a's sibling d: 1/8 · 128/256
			{128, []string{"b", "c"}}, // → {c d} through b's sibling d: the same
			{256, []string{"P", "e"}}, // → {d e} through P's child d, and through P's substitute d
			{128, []string{"b", "e"}}, // → {d e} through b's sibling d: 1/8 · 128/256 = 1/4 · 128/512
			{64, []string{"x", "y", "w"}},
		},
		[][]string{{"P", "d"}, {"x", "y", "z"}})
}

// checkPinned fails t unless got, sorted by set, holds each of want.
func checkPinned(t *testing.T, label string, got []Candidate, want ...Candidate) {
	t.Helper()
	for _, w := range want {
		i, ok := slices.BinarySearchFunc(got, w.Set, func(c Candidate, s item.Itemset) int { return c.Set.Compare(s) })
		if !ok || !sameCandidates(got[i:i+1], []Candidate{w}) {
			t.Errorf("%s: want %+v among %+v", label, w, got)
		}
	}
}

// TestGenerateCandidatesTieRule pins the path that wins each of tieCase's
// ties for one worker: the first source, and within a source children before
// siblings.
func TestGenerateCandidatesTieRule(t *testing.T) {
	c, set := tieCase(t)
	checkPinned(t, "one worker", GenerateCandidates(c.levels, c.table, c.tax, c.minSup, c.minRI, c.substitutes),
		Candidate{Set: set("c", "d"), Expected: 1.0 / 16, Source: set("a", "c"), Via: ViaSiblings},
		Candidate{Set: set("d", "e"), Expected: 1.0 / 16, Source: set("P", "e"), Via: ViaChildren},
		Candidate{Set: set("y", "z", "w"), Expected: 1.0 / 32, Source: set("x", "y", "w"), Via: ViaSiblings})
}

// TestGenerateCandidatesSameForAnyWorkerCount is the spec of the worker loop:
// over tieCase and the random corpus the candidates — Set, Expected bit for
// bit, Source, Via — and the walk's counts are those of the reference
// generator and of one worker, for any number of workers and for any way the
// sources fall to them.
func TestGenerateCandidatesSameForAnyWorkerCount(t *testing.T) {
	ties, _ := tieCase(t)
	cases := []candgenCase{ties}
	for seed := int64(1); seed <= 600; seed++ {
		cases = append(cases, randomCandgenCase(t, rand.New(rand.NewSource(seed))))
	}
	r := rand.New(rand.NewSource(1))
	for ci, c := range cases {
		want := referenceCandidates(c.levels, c.table, c.tax, c.minSup, c.minRI, c.substitutes)
		sup := c.supports(c.tax)
		opt := Options{MinSupport: c.minSup, MinRI: c.minRI, Substitutes: c.substitutes}
		in := newInputs(c.levels, c.table.Total(), c.tax, sup, opt)
		var one WalkStats
		for _, workers := range []int{1, 2, 5, len(in.sources) + len(in.anchors) + 3} {
			opt.Count.Parallelism = workers
			got, walk := listed(generateCandidates(c.levels, c.table.Total(), c.tax, sup, opt))
			if workers == 1 {
				one = walk
			}
			if !sameCandidates(got, want) || walk != one {
				t.Fatalf("case %d, %d workers: %+v\n got  %v\n want %v (%+v)", ci, workers, walk, got, want, one)
			}
		}
		if one.Emitted != one.AlreadyLarge+one.Duplicates+one.Recorded || one.Recorded != len(want) {
			t.Fatalf("case %d: %+v for %d candidates", ci, one, len(want))
		}

		// The tasks dealt at random to three workers, each running its own in
		// ascending order as the shared counter makes it, gathered in both
		// orders.
		gens := []*generator{in.newGenerator(), in.newGenerator(), in.newGenerator()}
		for i := range len(in.sources) + len(in.anchors) {
			gens[r.Intn(len(gens))].run(i)
		}
		if ci%2 == 0 {
			slices.Reverse(gens)
		}
		if got, walk := listed(candidates(gens)); !sameCandidates(got, want) || walk != one {
			t.Fatalf("case %d, sources dealt at random: %+v\n got  %v\n want %v (%+v)", ci, walk, got, want, one)
		}
	}
}

// TestClassTablesExactlyFull holds classify to its counting pass: the
// anchors, groups and pools the classes slice are each made once, at the size
// counted for them, and end exactly full. A short count changes no output —
// append grows the table — so only this test sees it, over the random and
// hostile corpora and Tall 5 000 at 1 % / 0.5.
func TestClassTablesExactlyFull(t *testing.T) {
	ties, _ := tieCase(t)
	cases := []candgenCase{ties}
	for seed := int64(1); seed <= 600; seed++ {
		cases = append(cases, randomCandgenCase(t, rand.New(rand.NewSource(seed))))
	}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, hostileCase(t, rand.New(rand.NewSource(seed))))
	}
	levels, table, tax := candgenInput(t, datagen.Tall(), 5000, 0.01, 0)
	cases = append(cases, candgenCase{tax: tax, table: table, levels: levels, minSup: 0.01, minRI: 0.5})
	for ci, c := range cases {
		opt := Options{MinSupport: c.minSup, MinRI: c.minRI, Substitutes: c.substitutes}
		in := newInputs(c.levels, c.table.Total(), c.tax, c.supports(c.tax), opt)
		if len(in.anchors) != cap(in.anchors) || len(in.groups) != cap(in.groups) || len(in.pools) != cap(in.pools) {
			t.Fatalf("case %d: anchors %d of %d, groups %d of %d, pools %d of %d", ci,
				len(in.anchors), cap(in.anchors), len(in.groups), cap(in.groups), len(in.pools), cap(in.pools))
		}
		if ci == len(cases)-1 && (len(in.classes) < 100 || len(in.pools) == 0) {
			t.Fatalf("Tall 5 000: %d classes, %d pool members: too few to mean anything", len(in.classes), len(in.pools))
		}
	}
}

// hostileCase builds the inputs a sibling-class Case 3 can get wrong: a root
// class of 20–25 roots with sources of 2, 3 and, in every third case, 4
// members; two members of one group whose counts are not powers of two, so
// that the walk's products round; off-taxonomy ids in sources beside roots,
// each its own group; substitutes that are also a sibling or a child, or that
// tie a root to another root's child, so that sources of one class split
// between the walk and the class; and otherwise counts that are powers of two,
// so that many sources share w exactly. Large itemsets may pair an item with
// its own ancestor, as in randomCandgenCase.
func hostileCase(t *testing.T, r *rand.Rand) candgenCase {
	t.Helper()
	b := taxonomy.NewBuilder()
	roots := 20 + r.Intn(6)
	for i := 0; i < roots; i++ {
		b.Node("r" + strconv.Itoa(i))
	}
	for i := 0; i < 3; i++ {
		for j := 3 + r.Intn(3); j > 0; j-- {
			b.Link("r"+strconv.Itoa(i), "c"+strconv.Itoa(i)+"_"+strconv.Itoa(j))
		}
	}
	b.Link("c0_1", "g0")
	b.Link("c0_1", "g1")
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) item.Item {
		x, ok := tax.Dictionary().Lookup(name)
		if !ok {
			t.Fatalf("no node %s", name)
		}
		return x
	}
	n := tax.Size()
	pow := []int{64, 128, 256, 512}
	var l1 []item.CountedSet
	for x := item.Item(0); int(x) < n+2; x++ { // n and n+1 are off-taxonomy
		c := pow[r.Intn(len(pow))]
		if x == id("r3") || x == id("r4") || x == id("c1_1") || x == id("c1_2") {
			c = 101 + 2*r.Intn(400) // two roots and two siblings that round
		}
		l1 = append(l1, item.CountedSet{Set: item.Itemset{x}, Count: c})
	}
	levels := [][]item.CountedSet{l1, nil, nil, nil}
	put := func(raw ...item.Item) {
		set := item.New(raw...)
		if set.Len() != len(raw) || slices.ContainsFunc(levels[len(raw)-1], func(cs item.CountedSet) bool { return cs.Set.Equal(set) }) {
			return
		}
		c := pow[r.Intn(len(pow))] / 4
		if r.Intn(4) == 0 {
			c = 7 + r.Intn(90)
		}
		levels[len(raw)-1] = append(levels[len(raw)-1], item.CountedSet{Set: set, Count: c})
	}
	root := func() item.Item { return item.Item(r.Intn(roots)) }
	off := func() item.Item { return item.Item(n + r.Intn(2)) }
	child := func(i int) item.Item { return tax.Children(item.Item(i))[r.Intn(len(tax.Children(item.Item(i))))] }
	for i := 6 + r.Intn(6); i > 0; i-- {
		put(root(), root())
		put(root(), root(), root())
	}
	for i := 2 + r.Intn(3); i > 0; i-- {
		put(root(), off())
		put(root(), root(), off())
		put(child(0), child(0), root())
		put(child(1), child(1))
		put(child(0), child(1), child(2))
		put(root(), child(r.Intn(3)))
	}
	if r.Intn(3) == 0 {
		put(root(), root(), root(), root())
		put(root(), root(), off(), child(2))
	}
	subs := []item.Itemset{item.New(id("c0_1"), id("c0_2")), item.New(id("c0_1"), id("g0"))}
	if r.Intn(2) == 0 {
		subs = append(subs, item.New(id("r2"), id("c1_1")))
	}
	return candgenCase{tax, tableOf(1024, levels), levels, subs, 0.01, []float64{0.1, 0.5}[r.Intn(2)]}
}

// TestHostileCase3 holds the generator to the reference on hostileCase for 1,
// 2, 5 and more workers than tasks, on the restricted taxonomy and the full
// one. First it pins two winners on counts that are powers of two, so that
// equal expectations are equal float64s. {b c} is reached three ways at 1/16:
// by its class, from {b e} (e → c), which is the lowest source and wins; by a
// substitute source's sibling walk, from {x b} (x → c, c being x's
// substitute); and by a children path, from {P c} (P → b). {y z w} is reached
// from {x y w}, whose members have substitutes, by three permutations of
// 1/32: x → z; x → y and y → z; x → w and w → z.
func TestHostileCase3(t *testing.T) {
	c, set := namedCase(t, [][2]string{{"P", "a"}, {"P", "b"}, {"P", "d"}, {"Q", "c"}, {"Q", "e"}}, []string{"x", "y", "z", "w"},
		[]namedSet{
			{512, []string{"P"}}, {512, []string{"Q"}}, {256, []string{"a"}}, {256, []string{"b"}}, {256, []string{"c"}},
			{128, []string{"d"}}, {256, []string{"e"}}, {256, []string{"x"}}, {256, []string{"y"}}, {128, []string{"z"}}, {512, []string{"w"}},
			{64, []string{"b", "e"}}, {64, []string{"x", "b"}}, {128, []string{"P", "c"}}, {64, []string{"x", "y", "w"}},
		},
		[][]string{{"x", "c"}, {"x", "y", "z"}})
	want := referenceCandidates(c.levels, c.table, c.tax, c.minSup, c.minRI, c.substitutes)
	sup := c.supports(c.tax)
	opt := Options{MinSupport: c.minSup, MinRI: c.minRI, Substitutes: c.substitutes}
	for _, workers := range []int{1, 2, 5, 1000} {
		opt.Count.Parallelism = workers
		got := generateCandidates(c.levels, c.table.Total(), c.tax, sup, opt).list()
		if !sameCandidates(got, want) {
			t.Fatalf("%d workers: got %v, want %v", workers, got, want)
		}
		checkPinned(t, strconv.Itoa(workers)+" workers", got,
			Candidate{Set: set("b", "c"), Expected: 1.0 / 16, Source: set("b", "e"), Via: ViaSiblings},
			Candidate{Set: set("y", "z", "w"), Expected: 1.0 / 32, Source: set("x", "y", "w"), Via: ViaSiblings})
	}

	var total, siblings, roots4, offTaxonomy, ties int
	for seed := int64(1); seed <= 12; seed++ {
		c := hostileCase(t, rand.New(rand.NewSource(seed)))
		restricted := c.tax.Restrict(func(x item.Item) bool { return c.table.Contains(item.Itemset{x}) })
		for _, tax := range []*taxonomy.Taxonomy{restricted, c.tax} {
			want := referenceCandidates(c.levels, c.table, tax, c.minSup, c.minRI, c.substitutes)
			sup := c.supports(tax)
			opt := Options{MinSupport: c.minSup, MinRI: c.minRI, Substitutes: c.substitutes}
			var one WalkStats
			for _, workers := range []int{1, 2, 5, 1000} {
				opt.Count.Parallelism = workers
				got, walk := listed(generateCandidates(c.levels, c.table.Total(), tax, sup, opt))
				if workers == 1 {
					one = walk
				}
				if !sameCandidates(got, want) || walk != one {
					for i := range min(len(got), len(want)) {
						if !sameCandidates(got[i:i+1], want[i:i+1]) {
							t.Errorf("first difference: got %+v, want %+v", got[i], want[i])
							break
						}
					}
					t.Fatalf("seed %d, %d workers: %d candidates, want %d (%+v, one worker %+v)", seed, workers, len(got), len(want), walk, one)
				}
			}
			if tax != c.tax {
				continue
			}
			flipped := make([][]item.CountedSet, len(c.levels))
			for i, lvl := range c.levels {
				flipped[i] = slices.Clone(lvl)
				slices.Reverse(flipped[i])
			}
			for i, f := range referenceCandidates(flipped, c.table, c.tax, c.minSup, c.minRI, c.substitutes) {
				if f.Expected == want[i].Expected && !f.Source.Equal(want[i].Source) {
					ties++
				}
			}
			for _, w := range want {
				total++
				if w.Via == ViaSiblings {
					siblings++
					if len(w.Set) == 4 && c.tax.IsRoot(w.Set[0]) && c.tax.IsRoot(w.Set[3]) {
						roots4++
					}
				}
				if int(w.Set[len(w.Set)-1]) >= c.tax.Size() {
					offTaxonomy++
				}
			}
		}
	}
	t.Logf("%d candidates: %d via siblings, %d of them four roots, %d with an off-taxonomy member, %d tied between sources", total, siblings, roots4, offTaxonomy, ties)
	if siblings < total/2 || roots4 == 0 || offTaxonomy == 0 || ties == 0 {
		t.Fatal("the hostile corpus no longer reaches what it was built for")
	}
}

// TestNonPositiveMembersGenerateNothing pins the rule for a source with a
// member of no positive support, whose w = sup(l)/Π sup(x) has no finite
// value: one member with a zero count (z) and one that is not large (n). Such
// a source generates nothing, in the kernel and the reference alike, on any
// number of workers, and every expectation is finite. (A mined table holds no
// such source: there sup(x) ≥ sup(l) > 0.) Only {a d} generates: its class
// reaches {b d} and {a e}, at w = 1.
func TestNonPositiveMembersGenerateNothing(t *testing.T) {
	c, set := namedCase(t, [][2]string{{"P", "a"}, {"P", "b"}, {"P", "z"}, {"P", "n"}, {"Q", "d"}, {"Q", "e"}}, nil,
		[]namedSet{
			{512, []string{"P"}}, {512, []string{"Q"}}, {256, []string{"a"}}, {256, []string{"b"}}, {0, []string{"z"}},
			{256, []string{"d"}}, {128, []string{"e"}},
			{64, []string{"a", "z"}}, {64, []string{"b", "n"}}, {64, []string{"a", "d"}},
		}, nil)
	want := []Candidate{
		{Set: set("a", "e"), Expected: 1.0 / 32, Source: set("a", "d"), Via: ViaSiblings},
		{Set: set("b", "d"), Expected: 1.0 / 16, Source: set("a", "d"), Via: ViaSiblings},
	}
	if ref := referenceCandidates(c.levels, c.table, c.tax, c.minSup, c.minRI, c.substitutes); !sameCandidates(ref, want) {
		t.Fatalf("reference: got %v, want %v", ref, want)
	}
	opt := Options{MinSupport: c.minSup, MinRI: c.minRI, Substitutes: c.substitutes}
	for _, workers := range []int{1, 2, 5} {
		opt.Count.Parallelism = workers
		got, walk := listed(generateCandidates(c.levels, c.table.Total(), c.tax, c.supports(c.tax), opt))
		if !sameCandidates(got, want) || walk.Sources != 1 {
			t.Fatalf("%d workers: got %v (%+v), want %v from one source", workers, got, walk, want)
		}
	}

	// The random corpus holds such sources too: no expectation is infinite
	// or NaN, and none reaches a set holding a member of no positive support.
	for seed := int64(1); seed <= 600; seed++ {
		c := randomCandgenCase(t, rand.New(rand.NewSource(seed)))
		sup := c.supports(c.tax)
		for _, cand := range GenerateCandidates(c.levels, c.table, c.tax, c.minSup, c.minRI, c.substitutes) {
			if math.IsInf(cand.Expected, 0) || math.IsNaN(cand.Expected) || slices.ContainsFunc(cand.Set, func(x item.Item) bool { return !(sup[x] > 0) }) {
				t.Fatalf("seed %d: %+v", seed, cand)
			}
		}
	}
}

// TestCandidatesSortedBySet gathers the records of two generators whose item
// ids are so large that a sort key holds only two members of a set, so that
// the sets of three to five members that share their first two are ordered
// by the comparison that follows the integer sort: by size, then by set, with
// the sets of each size counted, and by set once listed.
func TestCandidatesSortedBySet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sources []item.Itemset
	for len(sources) < 3000 {
		raw := make([]item.Item, 3+r.Intn(3))
		for j := range raw {
			raw[j] = item.Item(1<<20 + r.Intn(6)*r.Intn(1<<10))
		}
		if s := item.New(raw...); s.Len() == len(raw) && !slices.ContainsFunc(sources, s.Equal) {
			sources = append(sources, s)
		}
	}
	in := &inputs{sources: sources}
	gens := []*generator{{inputs: *in}, {inputs: *in}}
	for i, s := range sources {
		g := gens[i%2]
		g.recs, g.items = append(g.recs, prov{float64(i), int32(i), ViaChildren}), append(g.items, s...)
	}
	c := candidates(gens)
	bySizeThenSet := func(a, b item.Itemset) int { return cmp.Or(cmp.Compare(len(a), len(b)), a.Compare(b)) }
	if len(c.sets) != len(sources) || !slices.IsSortedFunc(c.sets, bySizeThenSet) {
		t.Fatalf("%d sets from %d records, sorted by size, then set: %v", len(c.sets), len(sources), slices.IsSortedFunc(c.sets, bySizeThenSet))
	}
	for k, n := range c.bySize {
		if want := len(slices.DeleteFunc(slices.Clone(sources), func(s item.Itemset) bool { return len(s) != k })); n != want {
			t.Fatalf("%d sets of %d members, want %d", n, k, want)
		}
	}
	got := c.list()
	if !slices.IsSortedFunc(got, func(a, b Candidate) int { return a.Set.Compare(b.Set) }) {
		t.Fatal("list: not sorted by set")
	}
	for _, c := range got {
		if !c.Set.Equal(sources[int(c.Expected)]) || !c.Source.Equal(c.Set) {
			t.Fatalf("%v recorded for %v", c.Set, sources[int(c.Expected)])
		}
	}
}

// TestFullTaxonomyMatchesCompressed holds the drivers to the paper's
// compression, which they skip: on a mined stage-1 result, whose L1 is
// ancestor-closed, generation over the whole taxonomy and over the taxonomy
// restricted to the large items gives the same candidates, bit for bit, and
// the same walk, on 1 and 4 workers. The inputs are datagen's Tall and Short
// and random markets whose baskets hold categories and ids the taxonomy
// lacks, with substitute groups across all of those.
func TestFullTaxonomyMatchesCompressed(t *testing.T) {
	type input struct {
		tax           *taxonomy.Taxonomy
		db            txdb.DB
		minSup, minRI float64
		subs          []item.Itemset
	}
	var inputs []input
	for _, p := range []datagen.Params{datagen.Tall(), datagen.Short()} {
		p.NumTransactions, p.Seed = 2000, 1
		tax, db, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{tax, db, 0.03, 0.3, nil})
	}
	for seed := int64(1); seed <= 60; seed++ {
		tax, err := taxonomy.Generate(taxonomy.GenSpec{Leaves: 24, Roots: 4, Fanout: 3}, stats.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		ids := tax.Size() + 3      // the last three are off-taxonomy
		pick := func() item.Item { // skewed, so that some of every level are small
			return item.Item(min(r.Intn(ids), r.Intn(ids), r.Intn(ids)))
		}
		db := &txdb.MemDB{}
		for i := 0; i < 300; i++ {
			raw := make([]item.Item, 2+r.Intn(4))
			for j := range raw {
				raw[j] = pick()
				if r.Intn(8) == 0 {
					raw[j] = item.Item(tax.Size() + r.Intn(3))
				}
			}
			db.Append(txdb.Transaction{TID: int64(i + 1), Items: item.New(raw...)})
		}
		var subs []item.Itemset
		for i := r.Intn(3); i > 0; i-- {
			if g := item.New(pick(), pick(), item.Item(r.Intn(ids))); g.Len() >= 2 {
				subs = append(subs, g)
			}
		}
		inputs = append(inputs, input{tax, db, []float64{0.03, 0.05}[r.Intn(2)], []float64{0.1, 0.5}[r.Intn(2)], subs})
	}

	var total, siblings, offTaxonomy, smallKin int
	for i, in := range inputs {
		large, err := gen.Mine(in.db, in.tax, gen.Options{MinSupport: in.minSup})
		if err != nil {
			t.Fatal(err)
		}
		if len(large.Levels) < 2 {
			continue
		}
		sup := levelSupports(large.Levels[0], large.Table.Total(), in.tax.Size())
		isLarge := func(x item.Item) bool { return sup[x] >= 0 }
		for _, cs := range large.Levels[0] {
			if x := cs.Set[0]; int(x) < in.tax.Size() && in.tax.Parent(x) != item.None && !isLarge(in.tax.Parent(x)) {
				t.Fatalf("input %d: L1 holds %d but not its parent", i, x)
			}
			for _, y := range in.tax.Siblings(cs.Set[0]) {
				if !isLarge(y) {
					smallKin++ // a sibling the compression drops
				}
			}
		}
		rtax := in.tax.Restrict(isLarge)
		opt := Options{MinSupport: in.minSup, MinRI: in.minRI, Substitutes: in.subs}
		for _, workers := range []int{1, 4} {
			opt.Count.Parallelism = workers
			full, fullWalk := listed(generateCandidates(large.Levels, large.Table.Total(), in.tax, sup, opt))
			comp, compWalk := listed(generateCandidates(large.Levels, large.Table.Total(), rtax, sup, opt))
			if !sameCandidates(full, comp) || fullWalk != compWalk {
				t.Fatalf("input %d, %d workers: %d candidates over the taxonomy (%+v), %d over the compressed one (%+v)", i, workers, len(full), fullWalk, len(comp), compWalk)
			}
			if workers > 1 {
				continue
			}
			for _, c := range full {
				total++
				if c.Via == ViaSiblings {
					siblings++
				}
				if int(c.Set[len(c.Set)-1]) >= in.tax.Size() {
					offTaxonomy++
				}
			}
		}
	}
	t.Logf("%d candidates: %d via siblings, %d with an off-taxonomy member; %d small siblings of large items", total, siblings, offTaxonomy, smallKin)
	if total < 5000 || siblings == 0 || offTaxonomy == 0 || smallKin == 0 {
		t.Fatal("the inputs no longer reach what the compression would drop")
	}
}

// candgenInput mines stage 1 of a generated dataset, up to maxK (0: no
// limit), which leaves exactly what mineStages23 hands the generator: the
// levels, their table and the whole taxonomy.
func candgenInput(tb testing.TB, p datagen.Params, txns int, minSup float64, maxK int) ([][]item.CountedSet, *item.Table, *taxonomy.Taxonomy) {
	tb.Helper()
	p.NumTransactions, p.Seed = txns, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	large, err := gen.Mine(db, tax, gen.Options{MinSupport: minSup, MaxK: maxK})
	if err != nil {
		tb.Fatal(err)
	}
	return large.Levels, large.Table, tax
}

// TestGenerateCandidatesAllocs pins the kernel's allocations under 8 per
// candidate, so that a per-choice allocation cannot come back unnoticed:
// the classes are built in a few flat tables, and a worker records into two
// growing slices, gathered and sorted once. A further worker adds its own
// scratch and records: at most 3(n + 64) allocations. And it allocates no
// table sized by the taxonomy but its class-enumeration marks, 4 bytes an id:
// four workers take at most those and 200 bytes a candidate (two rounds of
// merging at 48, and the slack of records split four ways) beyond one
// worker's bytes, which a per-worker table of a slice header an id (24
// bytes) does not fit in.
func TestGenerateCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	levels, table, tax := candgenInput(t, datagen.Tall(), 2000, 0.04, 0)
	n := len(GenerateCandidates(levels, table, tax, 0.04, 0.3, nil))
	if n < 1000 {
		t.Fatalf("only %d candidates: input too small to mean anything", n)
	}
	allocs := testing.AllocsPerRun(3, func() { GenerateCandidates(levels, table, tax, 0.04, 0.3, nil) })
	if limit := float64(8*n + 64); allocs > limit {
		t.Fatalf("GenerateCandidates: %v allocs for %d candidates, want ≤ %v", allocs, n, limit)
	}
	t.Logf("%v allocs for %d candidates", allocs, n)

	sup := levelSupports(levels[0], table.Total(), tax.Size())
	opt := Options{MinSupport: 0.04, MinRI: 0.3}
	perWorker := func(workers int) (allocs, bytes float64) {
		opt.Count.Parallelism = workers
		return allocated(3, func() { generateCandidates(levels, table.Total(), tax, sup, opt) })
	}
	one, oneBytes := perWorker(1)
	four, fourBytes := perWorker(4)
	if limit := one + float64(3*(n+64)); four > limit {
		t.Fatalf("4 workers: %v allocs against %v for one, want ≤ %v", four, one, limit)
	}
	if limit := oneBytes + float64(3*4*tax.Size()+200*n); fourBytes > limit {
		t.Fatalf("4 workers: %.0f bytes against %.0f for one, want ≤ %.0f (%d taxonomy ids, %d candidates)", fourBytes, oneBytes, limit, tax.Size(), n)
	}
	t.Logf("%v allocs and %.0f bytes with 4 workers, %v and %.0f with one (%d taxonomy ids)", four, fourBytes, one, oneBytes, tax.Size())
}

// allocated returns the mean allocations and bytes allocated of runs calls of
// f, after one call to warm it up.
func allocated(runs int, f func()) (allocs, bytes float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWalkCountsOnTall reads the walk's counts off a mine of the Tall shape
// and pins the regressions they were added to show. Case 3 derived each
// candidate from every large itemset of its class, 66 completed sets per
// candidate on batch-tall's input; a class set is now completed once, so
// Case 3 completes at most 1.5 per candidate. And a generator that visits
// little more than it records: trying every sibling of the last member below
// a prefix with no member kept — sets Case 3 forbids — read 5.7 visits per
// emission.
func TestWalkCountsOnTall(t *testing.T) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 2000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MinSupport: 0.04, MinRI: 0.3}
	opt.Count.Parallelism = 2
	res, err := Mine(db, tax, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Walk
	t.Logf("%+v", w)
	if w.Sources != len(res.Large.Large())-len(res.Large.Levels[0]) || w.Recorded != res.TotalCandidates() || w.Recorded < 1000 {
		t.Fatalf("%+v: %d large itemsets of size ≥ 2, %d candidates", w, len(res.Large.Large())-len(res.Large.Levels[0]), res.TotalCandidates())
	}
	if w.Emitted != w.AlreadyLarge+w.Duplicates+w.Recorded {
		t.Fatalf("%+v: the outcomes do not add up to the emissions", w)
	}
	if 2*w.Case3 > 3*w.Recorded {
		t.Fatalf("%+v: Case 3 completed more than 1.5 sets per candidate", w)
	}
	if w.Visited > 3*w.Recorded {
		t.Fatalf("%+v: more than 3 visits per candidate", w)
	}
}

var candidateSink *generated

// BenchmarkGenerateCandidates runs the kernel on the inputs of the
// benchmark's workloads (benchmark/sizes.go) — batch-tall, batch-wide, the
// mine serve-read serves and stream-mixed's options — and on Tall at the low
// end of the paper's Figure 6, with one worker and with two. Every result is
// checked against the one-worker result before it is timed.
func BenchmarkGenerateCandidates(b *testing.B) {
	for _, bc := range []struct {
		name          string
		params        datagen.Params
		txns          int
		minSup, minRI float64
		maxK          int
	}{
		{"tall", datagen.Tall(), 5000, 0.03, 0.3, 0},
		{"tall-1pct", datagen.Tall(), 5000, 0.01, 0.5, 0},
		{"short", datagen.Short(), 200000, 0.01, 0.5, 0},
		{"short-5k", datagen.Short(), 5000, 0.01, 0.5, 0},
		{"stream", datagen.Short(), 25000, 0.0125, 0.5, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			levels, table, tax := candgenInput(b, bc.params, bc.txns, bc.minSup, bc.maxK)
			sup := levelSupports(levels[0], table.Total(), tax.Size())
			opt := Options{MinSupport: bc.minSup, MinRI: bc.minRI}
			want := generateCandidates(levels, table.Total(), tax, sup, opt).list()
			for _, workers := range []int{1, 2} {
				b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
					opt.Count.Parallelism = workers
					got, walk := listed(generateCandidates(levels, table.Total(), tax, sup, opt))
					if !sameCandidates(got, want) {
						b.Fatalf("%d workers: candidates differ from one worker's", workers)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						candidateSink = generateCandidates(levels, table.Total(), tax, sup, opt)
					}
					b.ReportMetric(float64(len(got)), "candidates")
					b.ReportMetric(float64(walk.Visited), "visited/op")
					b.ReportMetric(float64(walk.Emitted), "emitted/op")
				})
			}
		})
	}
}

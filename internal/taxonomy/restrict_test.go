package taxonomy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"negmine/internal/item"
	"negmine/internal/stats"
)

// referenceRestrict is Restrict as it was before it shared what did not
// change: unlink every dropped node, then derive children, roots, depths,
// ancestor chains, leaves and categories from scratch with finish, and take
// the dropped nodes back out of roots, leaves and categories.
func referenceRestrict(t *Taxonomy, keep func(item.Item) bool) *Taxonomy {
	n := t.Size()
	nt := &Taxonomy{
		parent:   make([]item.Item, n),
		children: make([][]item.Item, n),
		depth:    make([]int, n),
		anc:      make([][]item.Item, n),
		dict:     t.dict,
	}
	for i := 0; i < n; i++ {
		p := t.parent[i]
		if !keep(item.Item(i)) || p == item.None || !keep(p) {
			nt.parent[i] = item.None
			continue
		}
		nt.parent[i] = p
	}
	res, err := finish(nt)
	if err != nil {
		panic("taxonomy: referenceRestrict broke acyclicity: " + err.Error())
	}
	var roots, leaves, cats []item.Item
	for _, r := range res.roots {
		if keep(r) {
			roots = append(roots, r)
		}
	}
	for _, l := range res.leaves {
		if keep(l) {
			leaves = append(leaves, l)
		}
	}
	for _, c := range res.cats {
		if keep(c) {
			cats = append(cats, c)
		}
	}
	res.roots, res.leaves, res.cats = roots, item.New(leaves...), item.New(cats...)
	return res
}

// randomForest builds a forest of n nodes whose ids say nothing about the
// hierarchy: nodes are linked in a random order, each to an earlier one or to
// none. link is the chance a node gets a parent at all (low: many roots),
// chain the chance that parent is the node linked just before it (high: deep
// chains and single-child categories).
func randomForest(t *testing.T, rng *rand.Rand, n int, link, chain float64) *Taxonomy {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("n%d", i))
	}
	order := rng.Perm(n)
	for k := 1; k < n; k++ {
		if rng.Float64() >= link {
			continue
		}
		p := order[rng.Intn(k)]
		if rng.Float64() < chain {
			p = order[k-1]
		}
		b.LinkIDs(item.Item(p), item.Item(order[k]))
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tax
}

// TestRestrictMatchesReference compares Restrict with referenceRestrict on
// every accessor, node by node, over seeded random forests — many roots,
// deep chains, single-child categories — crossed with keep sets that keep
// all, none, a random share, and a child but not its parent.
func TestRestrictMatchesReference(t *testing.T) {
	shapes := []struct {
		name        string
		link, chain float64
	}{
		{"many roots", 0.3, 0},
		{"bushy", 0.95, 0},
		{"deep chains", 0.97, 0.8},
		{"single-child chains", 1, 1},
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, shape := range shapes {
			tax := randomForest(t, rng, 1+rng.Intn(80), shape.link, shape.chain)
			n := tax.Size()
			random := make([]bool, n)
			for i := range random {
				random[i] = rng.Float64() < 0.6
			}
			// Keep every node that has a parent, drop every one with a child:
			// kept children whose parents are gone, at every depth.
			orphans := make([]bool, n)
			for i := range orphans {
				orphans[i] = rng.Float64() < 0.8 && len(tax.Children(item.Item(i))) == 0 ||
					tax.Parent(item.Item(i)) != item.None && rng.Float64() < 0.5
			}
			for _, ks := range []struct {
				name string
				keep func(item.Item) bool
			}{
				{"all", func(item.Item) bool { return true }},
				{"none", func(item.Item) bool { return false }},
				{"random", func(x item.Item) bool { return random[x] }},
				{"child without parent", func(x item.Item) bool { return orphans[x] }},
			} {
				what := fmt.Sprintf("seed %d, %s, keep %s", seed, shape.name, ks.name)
				checkSameTaxonomy(t, what, tax.Restrict(ks.keep), referenceRestrict(tax, ks.keep))
			}
		}
	}
}

// checkSameTaxonomy fails unless got and want answer every accessor alike.
func checkSameTaxonomy(t *testing.T, what string, got, want *Taxonomy) {
	t.Helper()
	if got.Size() != want.Size() || got.Height() != want.Height() ||
		!slices.Equal(got.Roots(), want.Roots()) || !got.Leaves().Equal(want.Leaves()) || !got.Categories().Equal(want.Categories()) {
		t.Fatalf("%s: size %d height %d roots %v leaves %v categories %v; want %d %d %v %v %v", what,
			got.Size(), got.Height(), got.Roots(), got.Leaves(), got.Categories(),
			want.Size(), want.Height(), want.Roots(), want.Leaves(), want.Categories())
	}
	if err := validate(got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := 0; i < want.Size(); i++ {
		x := item.Item(i)
		if got.Parent(x) != want.Parent(x) || got.depth[x] != want.depth[x] ||
			got.IsRoot(x) != want.IsRoot(x) ||
			!slices.Equal(got.Children(x), want.Children(x)) || !slices.Equal(got.Siblings(x), want.Siblings(x)) ||
			!slices.Equal(got.AncestorsOf(x), want.AncestorsOf(x)) {
			t.Fatalf("%s: node %d: parent %d depth %d root %v children %v siblings %v ancestors %v; want %d %d %v %v %v %v",
				what, x, got.Parent(x), got.depth[x], got.IsRoot(x), got.Children(x), got.Siblings(x), got.AncestorsOf(x),
				want.Parent(x), want.depth[x], want.IsRoot(x), want.Children(x), want.Siblings(x), want.AncestorsOf(x))
		}
	}
}

// TestRestrictDoesNotAlias: a restricted chain is a prefix of the original's,
// cut off at its capacity too — appending to it, or to a filtered child list,
// leaves the original taxonomy as built.
func TestRestrictDoesNotAlias(t *testing.T) {
	tax, ids := figure1(t)
	r := tax.Restrict(func(x item.Item) bool { return x != ids["A"] && x != ids["E"] && x != ids["G"] })
	if got := r.AncestorsOf(ids["D"]); !slices.Equal(got, []item.Item{ids["B"]}) {
		t.Fatalf("D under dropped A: ancestors %v", got)
	}
	_ = append(r.AncestorsOf(ids["D"]), ids["K"])
	_ = append(r.Children(ids["B"]), ids["K"])
	_ = append(r.Children(ids["F"]), ids["K"])
	built, _ := figure1(t)
	checkSameTaxonomy(t, "figure 1 after appends to a restriction", tax, built)
}

// BenchmarkRestrict restricts the paper's Short and Tall taxonomies (8 000
// leaves; fanout 9 and 3) to what a mine keeps: the ancestor closure of 3 %
// of the leaves, the shape large 1-items have.
func BenchmarkRestrict(b *testing.B) {
	for _, c := range []struct {
		name string
		spec GenSpec
	}{
		{"short", GenSpec{Leaves: 8000, Roots: 100, Fanout: 9}},
		{"tall", GenSpec{Leaves: 8000, Roots: 25, Fanout: 3}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tax, err := Generate(c.spec, stats.NewSource(1))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			kept := make([]bool, tax.Size())
			for _, l := range tax.Leaves() {
				if rng.Float64() < 0.03 {
					kept[l] = true
					for _, a := range tax.AncestorsOf(l) {
						kept[a] = true
					}
				}
			}
			keep := func(x item.Item) bool { return kept[x] }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tax.Restrict(keep)
			}
		})
	}
}

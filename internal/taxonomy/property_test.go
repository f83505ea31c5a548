package taxonomy

import (
	"testing"

	"negmine/internal/item"
	"negmine/internal/stats"
)

// randomTaxonomies yields a spread of generated taxonomies for property
// tests.
func randomTaxonomies(t *testing.T) []*Taxonomy {
	t.Helper()
	var out []*Taxonomy
	for seed := int64(1); seed <= 5; seed++ {
		spec := GenSpec{Leaves: 100 + int(seed)*37, Roots: 3 + int(seed), Fanout: 2 + float64(seed%3)*3}
		tax, err := Generate(spec, stats.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tax)
	}
	return out
}

func TestPropertyLeavesAndCategoriesPartitionNodes(t *testing.T) {
	for _, tax := range randomTaxonomies(t) {
		if tax.Leaves().Len()+tax.Categories().Len() != tax.Size() {
			t.Fatalf("leaves %d + categories %d != size %d",
				tax.Leaves().Len(), tax.Categories().Len(), tax.Size())
		}
		if !tax.Leaves().Disjoint(tax.Categories()) {
			t.Fatal("leaves and categories overlap")
		}
	}
}

func TestPropertyLeafDescendantsPartition(t *testing.T) {
	// The leaves reached through Children from each root exactly partition
	// the leaf set.
	for _, tax := range randomTaxonomies(t) {
		var union item.Itemset
		for _, r := range tax.Roots() {
			var leaves []item.Item
			for stack := []item.Item{r}; len(stack) > 0; {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if ch := tax.Children(x); len(ch) > 0 {
					stack = append(stack, ch...)
				} else {
					leaves = append(leaves, x)
				}
			}
			d := item.New(leaves...)
			if d.Len() != len(leaves) || !union.Disjoint(d) {
				t.Fatal("root subtrees share leaves")
			}
			union = union.Union(d)
		}
		if !union.Equal(tax.Leaves()) {
			t.Fatalf("root subtrees cover %d leaves, want %d", union.Len(), tax.Leaves().Len())
		}
	}
}

func TestPropertyAncestorChainConsistency(t *testing.T) {
	for _, tax := range randomTaxonomies(t) {
		for i := 0; i < tax.Size(); i++ {
			x := item.Item(i)
			anc := tax.AncestorsOf(x)
			// Depth equals chain length; each ancestor's depth decreases
			// by one; IsAncestor agrees with chain membership.
			if len(anc) != tax.depth[x] {
				t.Fatalf("node %d: %d ancestors but depth %d", i, len(anc), tax.depth[x])
			}
			for j, a := range anc {
				if tax.depth[a] != tax.depth[x]-j-1 {
					t.Fatalf("node %d: ancestor %d at depth %d, want %d",
						i, a, tax.depth[a], tax.depth[x]-j-1)
				}
				if !tax.IsAncestor(a, x) {
					t.Fatalf("IsAncestor(%d, %d) = false for chain member", a, x)
				}
				if tax.IsAncestor(x, a) {
					t.Fatalf("IsAncestor symmetric for %d, %d", x, a)
				}
			}
		}
	}
}

func TestPropertyExtendIdempotent(t *testing.T) {
	for seed, tax := range randomTaxonomies(t) {
		src := stats.NewSource(int64(seed) + 50)
		leaves := tax.Leaves()
		for trial := 0; trial < 30; trial++ {
			n := 1 + src.Intn(6)
			raw := make([]item.Item, n)
			for j := range raw {
				raw[j] = leaves[src.Intn(len(leaves))]
			}
			tx := item.New(raw...)
			ext := tax.Extend(tx)
			if !tx.SubsetOf(ext) {
				t.Fatal("Extend dropped original items")
			}
			if again := tax.Extend(ext); !again.Equal(ext) {
				t.Fatalf("Extend not idempotent: %v -> %v", ext, again)
			}
			// Every added item is an ancestor of some original item.
			for _, x := range ext.Minus(tx) {
				ok := false
				for _, o := range tx {
					if tax.IsAncestor(x, o) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("Extend added non-ancestor %v", x)
				}
			}
		}
	}
}

func TestPropertySiblingsSymmetric(t *testing.T) {
	for _, tax := range randomTaxonomies(t) {
		for i := 0; i < tax.Size(); i++ {
			x := item.Item(i)
			for _, s := range tax.Siblings(x) {
				found := false
				for _, back := range tax.Siblings(s) {
					if back == x {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("sibling relation asymmetric: %d has %d but not vice versa", x, s)
				}
				if s == x {
					t.Fatalf("node %d is its own sibling", x)
				}
			}
		}
	}
}

func TestPropertyRestrictSubset(t *testing.T) {
	// Restricting to any predicate yields child/sibling lists that are
	// subsets of the originals, restricted to kept nodes.
	for seed, tax := range randomTaxonomies(t) {
		src := stats.NewSource(int64(seed) + 99)
		keepSet := map[item.Item]bool{}
		for i := 0; i < tax.Size(); i++ {
			keepSet[item.Item(i)] = src.Float64() < 0.7
		}
		keep := func(x item.Item) bool { return keepSet[x] }
		r := tax.Restrict(keep)
		for i := 0; i < tax.Size(); i++ {
			x := item.Item(i)
			orig := item.New(tax.Children(x)...)
			for _, c := range r.Children(x) {
				if !keep(c) {
					t.Fatalf("restricted children of %d include dropped %d", x, c)
				}
				if !orig.Contains(c) {
					t.Fatalf("restricted children of %d include non-child %d", x, c)
				}
			}
			if !keep(x) && len(r.Children(x)) != 0 {
				t.Fatalf("dropped node %d still has children", x)
			}
		}
		for _, l := range r.Leaves() {
			if !keep(l) {
				t.Fatalf("dropped node %d listed as leaf", l)
			}
		}
	}
}

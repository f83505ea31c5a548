package taxonomy

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"negmine/internal/item"
	"negmine/internal/stats"
)

// figure1 builds the taxonomy from the paper's Figure 1:
//
//	A(B C)  F(G H I);  B(D E)  G(J K)
func figure1(t *testing.T) (*Taxonomy, map[string]item.Item) {
	t.Helper()
	b := NewBuilder()
	for _, e := range [][2]string{
		{"A", "B"}, {"A", "C"}, {"B", "D"}, {"B", "E"},
		{"F", "G"}, {"F", "H"}, {"F", "I"}, {"G", "J"}, {"G", "K"},
	} {
		b.Link(e[0], e[1])
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ids := make(map[string]item.Item)
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"} {
		id, ok := tax.Dictionary().Lookup(n)
		if !ok {
			t.Fatalf("node %s missing", n)
		}
		ids[n] = id
	}
	return tax, ids
}

func TestStructure(t *testing.T) {
	tax, ids := figure1(t)
	if err := validate(tax); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tax.Size() != 11 {
		t.Errorf("Size = %d, want 11", tax.Size())
	}
	if tax.Height() != 2 {
		t.Errorf("Height = %d, want 2", tax.Height())
	}
	if got := tax.Parent(ids["D"]); got != ids["B"] {
		t.Errorf("Parent(D) = %v", got)
	}
	if got := tax.Parent(ids["A"]); got != item.None {
		t.Errorf("Parent(A) = %v, want None", got)
	}
	if got := tax.Children(ids["B"]); !item.New(got...).Equal(item.New(ids["D"], ids["E"])) {
		t.Errorf("Children(B) = %v", got)
	}
	if got := tax.Children(ids["D"]); len(got) != 0 {
		t.Errorf("Children(leaf D) = %v", got)
	}
	if !tax.IsRoot(ids["A"]) || tax.IsRoot(ids["B"]) {
		t.Error("IsRoot wrong")
	}
	if got := item.New(tax.Roots()...); !got.Equal(item.New(ids["A"], ids["F"])) {
		t.Errorf("Roots = %v", got)
	}
	wantLeaves := item.New(ids["C"], ids["D"], ids["E"], ids["H"], ids["I"], ids["J"], ids["K"])
	if !tax.Leaves().Equal(wantLeaves) {
		t.Errorf("Leaves = %v, want %v", tax.Leaves(), wantLeaves)
	}
	wantCats := item.New(ids["A"], ids["B"], ids["F"], ids["G"])
	if !tax.Categories().Equal(wantCats) {
		t.Errorf("Categories = %v, want %v", tax.Categories(), wantCats)
	}
}

func TestSiblings(t *testing.T) {
	tax, ids := figure1(t)
	if got := item.New(tax.Siblings(ids["G"])...); !got.Equal(item.New(ids["H"], ids["I"])) {
		t.Errorf("Siblings(G) = %v", got)
	}
	if got := item.New(tax.Siblings(ids["C"])...); !got.Equal(item.New(ids["B"])) {
		t.Errorf("Siblings(C) = %v", got)
	}
	// Roots are each other's siblings (virtual super-root).
	if got := item.New(tax.Siblings(ids["A"])...); !got.Equal(item.New(ids["F"])) {
		t.Errorf("Siblings(A) = %v", got)
	}
}

func TestAncestors(t *testing.T) {
	tax, ids := figure1(t)
	anc := tax.AncestorsOf(ids["J"])
	if len(anc) != 2 || anc[0] != ids["G"] || anc[1] != ids["F"] {
		t.Errorf("AncestorsOf(J) = %v, want [G F]", anc)
	}
	if len(tax.AncestorsOf(ids["A"])) != 0 {
		t.Error("root has ancestors")
	}
	if !tax.IsAncestor(ids["F"], ids["J"]) || tax.IsAncestor(ids["J"], ids["F"]) {
		t.Error("IsAncestor wrong")
	}
	if tax.IsAncestor(ids["A"], ids["J"]) {
		t.Error("A is not an ancestor of J")
	}
}

func TestExtend(t *testing.T) {
	tax, ids := figure1(t)
	tx := item.New(ids["D"], ids["J"])
	got := tax.Extend(tx)
	want := item.New(ids["D"], ids["J"], ids["B"], ids["A"], ids["G"], ids["F"])
	if !got.Equal(want) {
		t.Errorf("Extend = %v, want %v", got, want)
	}
	// Items already including an ancestor must not duplicate.
	tx2 := item.New(ids["D"], ids["B"])
	if got := tax.Extend(tx2); !got.Equal(item.New(ids["D"], ids["B"], ids["A"])) {
		t.Errorf("Extend dedup = %v", got)
	}
	if got := tax.Extend(nil); got.Len() != 0 {
		t.Errorf("Extend(nil) = %v", got)
	}
}

func TestRestrict(t *testing.T) {
	tax, ids := figure1(t)
	// Drop H (a small leaf): G's siblings shrink, F's children shrink.
	small := ids["H"]
	r := tax.Restrict(func(i item.Item) bool { return i != small })
	if got := item.New(r.Children(ids["F"])...); !got.Equal(item.New(ids["G"], ids["I"])) {
		t.Errorf("Children(F) after Restrict = %v", got)
	}
	if got := item.New(r.Siblings(ids["G"])...); !got.Equal(item.New(ids["I"])) {
		t.Errorf("Siblings(G) after Restrict = %v", got)
	}
	if r.Leaves().Contains(small) {
		t.Error("restricted taxonomy still lists H as leaf")
	}
	// Dropping an internal node re-roots its kept children.
	r2 := tax.Restrict(func(i item.Item) bool { return i != ids["G"] })
	if !r2.IsRoot(ids["J"]) {
		t.Error("child of dropped node should become a root")
	}
	if got := item.New(r2.Children(ids["F"])...); !got.Equal(item.New(ids["H"], ids["I"])) {
		t.Errorf("Children(F) after dropping G = %v", got)
	}
	// Names and ids are preserved.
	if r.Name(ids["J"]) != "J" {
		t.Errorf("name lost: %q", r.Name(ids["J"]))
	}
	// Original untouched.
	if len(tax.Children(ids["F"])) != 3 {
		t.Error("Restrict mutated the original")
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder()
	b.Link("a", "b")
	b.Link("b", "c")
	b.Link("c", "a")
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not detected")
	}
	// Self-loop.
	b2 := NewBuilder()
	b2.Link("x", "x")
	if _, err := b2.Build(); err == nil {
		t.Fatal("self-loop not detected")
	}
}

func TestRelinkOverwrites(t *testing.T) {
	b := NewBuilder()
	b.Link("p1", "c")
	b.Link("p2", "c")
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := tax.Dictionary().Lookup("p2")
	c, _ := tax.Dictionary().Lookup("c")
	if tax.Parent(c) != p2 {
		t.Errorf("Parent(c) = %v, want p2", tax.Parent(c))
	}
	p1, _ := tax.Dictionary().Lookup("p1")
	if len(tax.Children(p1)) != 0 {
		t.Error("p1 should have become a leaf")
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	src := `
# paper figure 2
noncarb water        # category edge
water perrier
water evian
desserts yogurt
yogurt bryers
yogurt healthychoice
loner
`
	tax, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tax.Size() != 9 {
		t.Errorf("Size = %d, want 9", tax.Size())
	}
	w, _ := tax.Dictionary().Lookup("water")
	p, _ := tax.Dictionary().Lookup("perrier")
	if tax.Parent(p) != w {
		t.Error("perrier's parent wrong")
	}
	l, ok := tax.Dictionary().Lookup("loner")
	if !ok || !tax.IsRoot(l) || len(tax.Children(l)) != 0 {
		t.Error("standalone node mishandled")
	}

	var buf bytes.Buffer
	if err := tax.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	tax2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if tax2.Size() != tax.Size() {
		t.Errorf("round trip size %d != %d", tax2.Size(), tax.Size())
	}
	for _, name := range []string{"perrier", "evian", "bryers"} {
		a, _ := tax.Dictionary().Lookup(name)
		b, _ := tax2.Dictionary().Lookup(name)
		if tax.Name(tax.Parent(a)) != tax2.Name(tax2.Parent(b)) {
			t.Errorf("round trip parent of %s differs", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("a b c\n")); err == nil {
		t.Error("3-field line accepted")
	}
}

func TestStringTree(t *testing.T) {
	tax, _ := figure1(t)
	s := tax.String()
	if !strings.Contains(s, "A\n") || !strings.Contains(s, "  B\n") || !strings.Contains(s, "    D\n") {
		t.Errorf("tree view unexpected:\n%s", s)
	}
}

func TestGenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec GenSpec
	}{
		{"short-like", GenSpec{Leaves: 500, Roots: 10, Fanout: 9}},
		{"tall-like", GenSpec{Leaves: 500, Roots: 10, Fanout: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tax, err := Generate(tc.spec, stats.NewSource(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := validate(tax); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tax.Leaves().Len(); got != tc.spec.Leaves {
				t.Errorf("leaves = %d, want %d", got, tc.spec.Leaves)
			}
			if got := len(tax.Roots()); got > tc.spec.Roots {
				t.Errorf("roots = %d, want ≤ %d", got, tc.spec.Roots)
			}
			mf := tax.MeanFanout()
			if mf < tc.spec.Fanout*0.5 || mf > tc.spec.Fanout*1.7 {
				t.Errorf("mean fanout = %v, want ≈ %v", mf, tc.spec.Fanout)
			}
			// Every leaf must be named itemI and reach a root.
			for _, l := range tax.Leaves() {
				if !strings.HasPrefix(tax.Name(l), "item") {
					t.Fatalf("leaf name %q", tax.Name(l))
				}
			}
		})
	}
	// Tall must be strictly taller than Short.
	short, _ := Generate(GenSpec{Leaves: 2000, Roots: 50, Fanout: 9}, stats.NewSource(1))
	tall, _ := Generate(GenSpec{Leaves: 2000, Roots: 50, Fanout: 3}, stats.NewSource(1))
	if tall.Height() <= short.Height() {
		t.Errorf("tall height %d ≤ short height %d", tall.Height(), short.Height())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Leaves: 300, Roots: 8, Fanout: 5}
	a, _ := Generate(spec, stats.NewSource(11))
	b, _ := Generate(spec, stats.NewSource(11))
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if a.Parent(item.Item(i)) != b.Parent(item.Item(i)) {
			t.Fatalf("parent of %d differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	src := stats.NewSource(1)
	for _, spec := range []GenSpec{
		{Leaves: 0, Roots: 5, Fanout: 3},
		{Leaves: 10, Roots: 0, Fanout: 3},
		{Leaves: 10, Roots: 5, Fanout: 1},
	} {
		if _, err := Generate(spec, src); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// validate checks tx's internal consistency: every node is in its parent's
// child list, one level below it, and every root is at depth 0.
func validate(tx *Taxonomy) error {
	for i := 0; i < tx.Size(); i++ {
		id := item.Item(i)
		if p := tx.parent[i]; p != item.None {
			found := false
			for _, c := range tx.children[p] {
				if c == id {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("node %d missing from parent %d child list", i, p)
			}
			if tx.depth[i] != tx.depth[p]+1 {
				return fmt.Errorf("node %d depth %d inconsistent with parent depth %d", i, tx.depth[i], tx.depth[p])
			}
		} else if tx.depth[i] != 0 {
			return fmt.Errorf("root %d has depth %d", i, tx.depth[i])
		}
	}
	return nil
}

// Package taxonomy implements the item hierarchy ("is-a" forest) that the
// paper relies on as domain knowledge: leaves are purchasable items,
// internal nodes are categories (departments, sub-categories, brands...).
//
// The taxonomy serves three distinct roles in the system:
//
//  1. Generalized mining (Srikant–Agrawal) counts a transaction as
//     supporting a category when it contains any descendant leaf — the
//     AncestorsOf closure implements this extension.
//  2. Negative candidate generation (paper §2.1.1) swaps items of a large
//     itemset for their children or siblings — Children and Siblings.
//  3. Taxonomy compression (paper §2.2, improved algorithm) removes small
//     1-itemsets before candidate generation — Restrict. The miner does not
//     call it: over a generalized L1, which is ancestor-closed, skipping the
//     small items while walking the whole taxonomy is the same walk.
//
// A Taxonomy is immutable after Build; all methods are safe for concurrent
// readers.
package taxonomy

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"negmine/internal/item"
)

// Taxonomy is an immutable forest over item ids. Ids are dense in
// [0, Size()); leaves and categories share the same id space.
type Taxonomy struct {
	parent   []item.Item   // parent[i], item.None for roots
	children [][]item.Item // sorted child lists
	depth    []int         // depth[i]: 0 for roots
	roots    []item.Item
	leaves   item.Itemset // cached sorted leaf set
	cats     item.Itemset // cached sorted category (internal node) set
	anc      [][]item.Item
	dict     *item.Dictionary
	height   int

	internOnce sync.Once
	interned   *Interned
}

// Interned is a taxonomy laid out for lookup by name, the form a serving
// snapshot indexes items by: Names in id order, ID the reverse, and the
// ancestor chains flattened — node x's, nearest first, are
// AncIDs[AncOff[x]:AncOff[x+1]]. AncOff has Size()+1 entries.
type Interned struct {
	Names  []string
	ID     map[string]int32
	AncOff []uint32
	AncIDs []int32
}

// Interned returns t laid out for lookup by name. It is built on the first
// call and shared by every later one, so callers must not modify it.
func (t *Taxonomy) Interned() *Interned {
	t.internOnce.Do(func() {
		n := t.Size()
		in := &Interned{Names: make([]string, n), ID: make(map[string]int32, n), AncOff: make([]uint32, n+1)}
		for i := 0; i < n; i++ {
			in.Names[i] = t.dict.Name(item.Item(i))
			in.ID[in.Names[i]] = int32(i)
			in.AncOff[i] = uint32(len(in.AncIDs))
			for _, a := range t.anc[i] {
				in.AncIDs = append(in.AncIDs, int32(a))
			}
		}
		in.AncOff[n] = uint32(len(in.AncIDs))
		t.interned = in
	})
	return t.interned
}

// Builder constructs a Taxonomy incrementally, interning node names.
type Builder struct {
	dict   *item.Dictionary
	parent map[item.Item]item.Item
}

// NewBuilder returns an empty taxonomy builder.
func NewBuilder() *Builder {
	return &Builder{dict: item.NewDictionary(), parent: make(map[item.Item]item.Item)}
}

// Node interns name (creating a root-level node if new) and returns its id.
func (b *Builder) Node(name string) item.Item {
	id := b.dict.Intern(name)
	if _, ok := b.parent[id]; !ok {
		b.parent[id] = item.None
	}
	return id
}

// Link records that child's parent is parent (both interned by name).
// Re-linking a child to a different parent overwrites the previous edge.
func (b *Builder) Link(parent, child string) (item.Item, item.Item) {
	p := b.Node(parent)
	c := b.Node(child)
	b.parent[c] = p
	return p, c
}

// LinkIDs records a parent edge between already-interned ids.
func (b *Builder) LinkIDs(parent, child item.Item) { b.parent[child] = parent }

// Build finalizes the forest. It fails on cycles and on dangling parents.
func (b *Builder) Build() (*Taxonomy, error) {
	n := b.dict.Len()
	t := &Taxonomy{
		parent:   make([]item.Item, n),
		children: make([][]item.Item, n),
		depth:    make([]int, n),
		anc:      make([][]item.Item, n),
		dict:     b.dict,
	}
	for i := range t.parent {
		t.parent[i] = item.None
	}
	for c, p := range b.parent {
		if p == item.None {
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("taxonomy: node %d has out-of-range parent %d", c, p)
		}
		t.parent[c] = p
	}
	return finish(t)
}

// finish computes the derived structures of a built forest.
func finish(t *Taxonomy) (*Taxonomy, error) {
	n := len(t.parent)
	for c := 0; c < n; c++ {
		p := t.parent[c]
		if p == item.None {
			t.roots = append(t.roots, item.Item(c))
			continue
		}
		t.children[p] = append(t.children[p], item.Item(c))
	}
	for i := range t.children {
		ch := t.children[i]
		sort.Slice(ch, func(a, b int) bool { return ch[a] < ch[b] })
	}
	sort.Slice(t.roots, func(a, b int) bool { return t.roots[a] < t.roots[b] })

	// Depth + cycle detection via iterative parent-chain resolution.
	const unset = -1
	for i := range t.depth {
		t.depth[i] = unset
	}
	for i := 0; i < n; i++ {
		// Walk up until a node with known depth (or a root); detect cycles
		// with a step bound.
		var chain []item.Item
		cur := item.Item(i)
		steps := 0
		for t.depth[cur] == unset {
			chain = append(chain, cur)
			p := t.parent[cur]
			if p == item.None {
				t.depth[cur] = 0
				break
			}
			cur = p
			if steps++; steps > n {
				return nil, fmt.Errorf("taxonomy: cycle involving node %d (%s)", i, t.dict.Name(item.Item(i)))
			}
		}
		// Unwind the chain assigning depths.
		for j := len(chain) - 1; j >= 0; j-- {
			c := chain[j]
			if t.depth[c] == unset {
				t.depth[c] = t.depth[t.parent[c]] + 1
			}
			if t.depth[c] > t.height {
				t.height = t.depth[c]
			}
		}
	}

	// Leaf / category caches and ancestor closure.
	var leaves, cats []item.Item
	for i := 0; i < n; i++ {
		if len(t.children[i]) == 0 {
			leaves = append(leaves, item.Item(i))
		} else {
			cats = append(cats, item.Item(i))
		}
	}
	t.leaves = item.New(leaves...)
	t.cats = item.New(cats...)
	for i := 0; i < n; i++ {
		var a []item.Item
		for p := t.parent[i]; p != item.None; p = t.parent[p] {
			a = append(a, p)
		}
		t.anc[i] = a // ordered nearest-first
	}
	return t, nil
}

// Size returns the total number of nodes (leaves + categories).
func (t *Taxonomy) Size() int { return len(t.parent) }

// Height returns the maximum depth of any node (roots are depth 0).
func (t *Taxonomy) Height() int { return t.height }

// Dictionary returns the name dictionary for this taxonomy's nodes.
func (t *Taxonomy) Dictionary() *item.Dictionary { return t.dict }

// Name returns the display name of node i.
func (t *Taxonomy) Name(i item.Item) string { return t.dict.Name(i) }

// Parent returns the parent of i, or item.None for roots.
func (t *Taxonomy) Parent(i item.Item) item.Item {
	if !t.valid(i) {
		return item.None
	}
	return t.parent[i]
}

// Children returns the sorted child list of i. The returned slice is shared;
// callers must not modify it.
func (t *Taxonomy) Children(i item.Item) []item.Item {
	if !t.valid(i) {
		return nil
	}
	return t.children[i]
}

// Siblings returns the children of i's parent excluding i itself. Roots'
// siblings are the other roots.
func (t *Taxonomy) Siblings(i item.Item) []item.Item {
	if !t.valid(i) {
		return nil
	}
	var pool []item.Item
	if p := t.parent[i]; p != item.None {
		pool = t.children[p]
	} else {
		pool = t.roots
	}
	out := make([]item.Item, 0, max(len(pool)-1, 0)) // a node a restriction dropped is in no pool
	for _, s := range pool {
		if s != i {
			out = append(out, s)
		}
	}
	return out
}

// AncestorsOf returns all proper ancestors of i ordered nearest-first. The
// returned slice is shared; callers must not modify it.
func (t *Taxonomy) AncestorsOf(i item.Item) []item.Item {
	if !t.valid(i) {
		return nil
	}
	return t.anc[i]
}

// IsAncestor reports whether a is a proper ancestor of d.
func (t *Taxonomy) IsAncestor(a, d item.Item) bool {
	if !t.valid(d) {
		return false
	}
	for _, x := range t.anc[d] {
		if x == a {
			return true
		}
	}
	return false
}

// IsRoot reports whether i has no parent.
func (t *Taxonomy) IsRoot(i item.Item) bool { return t.valid(i) && t.parent[i] == item.None }

// Roots returns the root nodes (shared slice).
func (t *Taxonomy) Roots() []item.Item { return t.roots }

// Leaves returns the sorted set of leaf items (shared slice).
func (t *Taxonomy) Leaves() item.Itemset { return t.leaves }

// Categories returns the sorted set of internal nodes (shared slice).
func (t *Taxonomy) Categories() item.Itemset { return t.cats }

// ExtendInto appends tx plus all ancestors of its items into dst (normally
// dst[:0] of a reusable buffer) and returns the sorted, deduplicated result.
// It is the allocation-free form of Extend for counting hot paths: the
// returned itemset aliases dst's (possibly grown) backing array, so callers
// must stop using it before the next ExtendInto call on the same buffer.
func (t *Taxonomy) ExtendInto(dst []item.Item, tx item.Itemset) item.Itemset {
	for _, x := range tx {
		dst = append(dst, x)
		if t.valid(x) {
			dst = append(dst, t.anc[x]...)
		}
	}
	return item.SortDedup(dst)
}

// Extend returns tx plus all ancestors of its items (the Cumulate transform:
// a transaction supports a category iff it contains one of its leaves).
func (t *Taxonomy) Extend(tx item.Itemset) item.Itemset {
	seen := make(map[item.Item]struct{}, len(tx)*2)
	out := make([]item.Item, 0, len(tx)*2)
	add := func(x item.Item) {
		if _, ok := seen[x]; !ok {
			seen[x] = struct{}{}
			out = append(out, x)
		}
	}
	for _, x := range tx {
		add(x)
		if t.valid(x) {
			for _, a := range t.anc[x] {
				add(a)
			}
		}
	}
	return item.New(out...)
}

// Restrict returns a copy of the taxonomy in which every node failing keep
// has been unlinked: it disappears from its parent's child list and from
// sibling lists, and its own subtree is re-rooted (its children become
// roots). This implements the paper's "delete all small 1-itemsets from the
// taxonomy" optimization. Node ids and names are preserved.
//
// Nothing is re-derived: a kept node's ancestors are the prefix of its
// original chain up to the first dropped one (a subslice of it), and a child
// list is its original filtered (the original itself when nothing in it is
// dropped), so both stay sorted and the copy shares what did not change.
func (t *Taxonomy) Restrict(keep func(item.Item) bool) *Taxonomy {
	n := t.Size()
	kept := make([]bool, n)
	for i := range kept {
		kept[i] = keep(item.Item(i))
	}
	nt := &Taxonomy{
		parent:   make([]item.Item, n),
		children: make([][]item.Item, n),
		depth:    make([]int, n),
		anc:      make([][]item.Item, n),
		dict:     t.dict,
	}
	for i := 0; i < n; i++ {
		nt.parent[i] = item.None
		if !kept[i] {
			continue
		}
		a := t.anc[i]
		d := 0
		for d < len(a) && kept[a[d]] {
			d++
		}
		nt.anc[i], nt.depth[i] = a[:d:d], d
		nt.height = max(nt.height, d)
		if d > 0 {
			nt.parent[i] = t.parent[i]
		} else {
			nt.roots = append(nt.roots, item.Item(i))
		}
		ch := t.children[i]
		if slices.ContainsFunc(ch, func(c item.Item) bool { return !kept[c] }) {
			filtered := make([]item.Item, 0, len(ch))
			for _, c := range ch {
				if kept[c] {
					filtered = append(filtered, c)
				}
			}
			ch = filtered
		}
		if len(ch) == 0 {
			nt.leaves = append(nt.leaves, item.Item(i))
		} else {
			nt.children[i] = ch
			nt.cats = append(nt.cats, item.Item(i))
		}
	}
	return nt
}

func (t *Taxonomy) valid(i item.Item) bool { return i >= 0 && int(i) < len(t.parent) }

package negative

// The candidate generator as it was before the dense, allocation-free kernel
// in candidates.go replaced it (identifiers prefixed "ref"), the oracle
// TestGenerateCandidatesMatchesReference compares against. Its expectations
// are the one formula E(C | l) = w(l)·P(C), w(l) = sup(l)/Π_{x∈l} sup(x) in
// member order and P(C) = Π_{c∈C} sup(c) in item order, and of the paths to a
// set the one of largest w wins (the first of equal ones). It is deliberately
// naive: string-keyed map lookups per choice, item.New per emit, and the
// expectation floor applied to completed sets only (it used to cut a branch
// as soon as the running product fell to the floor, the assumption it shared
// with the kernel and that Case 3 breaks). Do not optimise it.

import (
	"sort"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// refGenerator accumulates candidate negative itemsets across large itemsets,
// deduplicating on the itemset and keeping the largest expected support
// (paper §2.1.1: "In such situations the largest value of the expected
// support is chosen").
type refGenerator struct {
	tax   *taxonomy.Taxonomy
	table *item.Table // generalized large-itemset supports
	// minExpected is MinSup·MinRI: candidates whose expected support does
	// not exceed it can never yield a rule with RI ≥ MinRI and are pruned
	// at generation time.
	minExpected float64
	// isLarge reports whether a single item has minimum support. In the
	// Improved driver the taxonomy is pre-compressed so children/sibling
	// lists contain only large items, but kept members and replacements
	// are still checked against the table for safety.
	isLarge func(item.Item) bool
	// subs maps an item to its declared substitute partners (extra
	// sibling-like choices beyond the taxonomy).
	subs map[item.Item][]item.Item
	out  map[string]refProv // by the candidate's String
}

// refProv is the best generation path seen for a candidate so far.
type refProv struct {
	set, source item.Itemset
	w, expected float64
	via         Mode
}

func newRefGenerator(tax *taxonomy.Taxonomy, table *item.Table, minSup, minRI float64, substitutes []item.Itemset) *refGenerator {
	subs := map[item.Item][]item.Item{}
	for _, group := range substitutes {
		for _, x := range group {
			for _, y := range group {
				if x != y {
					subs[x] = append(subs[x], y)
				}
			}
		}
	}
	return &refGenerator{
		tax:         tax,
		table:       table,
		minExpected: minSup * minRI,
		isLarge: func(x item.Item) bool {
			return table.Contains(item.Itemset{x})
		},
		subs: subs,
		out:  make(map[string]refProv),
	}
}

// siblingChoices returns the taxonomy siblings of x plus its declared
// substitute partners, deduplicated.
func (g *refGenerator) siblingChoices(x item.Item) []item.Item {
	sibs := g.tax.Siblings(x)
	extra := g.subs[x]
	if len(extra) == 0 {
		return sibs
	}
	seen := make(map[item.Item]struct{}, len(sibs)+len(extra))
	out := make([]item.Item, 0, len(sibs)+len(extra))
	for _, lists := range [][]item.Item{sibs, extra} {
		for _, s := range lists {
			if _, ok := seen[s]; !ok && s != x {
				seen[s] = struct{}{}
				out = append(out, s)
			}
		}
	}
	return out
}

// fromLarge generates all candidates derivable from the large itemset l
// (paper cases 1–3):
//
//	Case 1: every member replaced by one of its children.
//	Case 2: a proper non-empty subset of members replaced by children.
//	Case 3: a proper non-empty subset of members replaced by siblings
//	        (at least one member kept; all-sibling sets are excluded).
//
// In every case the expected support is sup(l) scaled by
// Π sup(replacement)/sup(original) over the replaced members — the
// uniformity assumption — which is w(l)·P(C). A source whose support is not
// positive, or with a member that is not large or of no positive support,
// generates nothing.
func (g *refGenerator) fromLarge(l item.Itemset) {
	supL, ok := g.table.Support(l)
	if !ok || supL == 0 {
		return
	}
	prod := 1.0
	for _, x := range l {
		supX, ok := g.table.Support(item.Itemset{x})
		if !ok || supX <= 0 {
			return
		}
		prod *= supX
	}
	w := supL / prod
	// Children modes: any non-empty subset replaced (cases 1 and 2 merge).
	g.enumerate(l, w, g.tax.Children, false, ViaChildren)
	// Sibling mode: proper subset replaced (case 3). Choices include
	// declared substitute partners (the §4.1 extension).
	g.enumerate(l, w, g.siblingChoices, true, ViaSiblings)
}

// enumerate walks positions of l deciding keep-vs-replace. keepOne forces at
// least one kept member (sibling mode).
func (g *refGenerator) enumerate(l item.Itemset, w float64, choices func(item.Item) []item.Item, keepOne bool, via Mode) {
	k := l.Len()
	picked := make([]item.Item, k)
	var rec func(pos, kept, replaced int)
	rec = func(pos, kept, replaced int) {
		if pos == k {
			if replaced == 0 || (keepOne && kept == 0) {
				return
			}
			g.emit(picked, w, l, via)
			return
		}
		x := l[pos]
		// Keep.
		picked[pos] = x
		rec(pos+1, kept+1, replaced)
		// Replace by each large choice.
		for _, r := range choices(x) {
			if !g.isLarge(r) {
				continue
			}
			picked[pos] = r
			rec(pos+1, kept, replaced+1)
		}
	}
	rec(0, 0, 0)
}

// emit normalizes, filters and records one candidate reached from a source
// of weight w.
func (g *refGenerator) emit(members []item.Item, w float64, source item.Itemset, via Mode) {
	set := item.New(members...)
	if set.Len() != len(members) {
		return // replacement collided with another member
	}
	prod := 1.0
	for _, c := range set {
		supC, _ := g.table.Support(item.Itemset{c})
		prod *= supC
	}
	expected := w * prod
	if expected <= g.minExpected {
		return
	}
	if g.table.Contains(set) {
		return // already found large: not a negative candidate
	}
	// A member paired with its own ancestor has degenerate support
	// semantics; such sets never appear among large itemsets either.
	for i := 0; i < set.Len(); i++ {
		for j := 0; j < set.Len(); j++ {
			if i != j && g.tax.IsAncestor(set[i], set[j]) {
				return
			}
		}
	}
	key := set.String()
	if old, ok := g.out[key]; !ok || w > old.w {
		g.out[key] = refProv{set: set, source: source, w: w, expected: expected, via: via}
	}
}

// candidates returns the accumulated candidates sorted by itemset.
func (g *refGenerator) candidates() []Candidate {
	out := make([]Candidate, 0, len(g.out))
	for _, p := range g.out {
		out = append(out, Candidate{Set: p.set, Expected: p.expected, Source: p.source, Via: p.via})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Set.Compare(out[j].Set) < 0 })
	return out
}

// referenceCandidates is GenerateCandidates as it stood before the dense
// kernel.
func referenceCandidates(levels [][]item.CountedSet, table *item.Table, tax *taxonomy.Taxonomy, minSup, minRI float64, substitutes []item.Itemset) []Candidate {
	g := newRefGenerator(tax, table, minSup, minRI, substitutes)
	for k := 2; k <= len(levels); k++ {
		for _, cs := range levels[k-1] {
			g.fromLarge(cs.Set)
		}
	}
	return g.candidates()
}

package negative

import (
	"math"
	"slices"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// Mode records which of the paper's generation cases produced a candidate.
type Mode int

const (
	// ViaChildren covers cases 1 and 2: members replaced by taxonomy
	// children.
	ViaChildren Mode = iota
	// ViaSiblings is case 3: members replaced by siblings (or declared
	// substitutes).
	ViaSiblings
)

// String names the mode.
func (m Mode) String() string {
	if m == ViaChildren {
		return "children"
	}
	return "siblings"
}

// Candidate is a candidate negative itemset with its expected support and
// the provenance of the generation path that assigned it (the
// highest-expectation path when several produce the same candidate).
type Candidate struct {
	Set      item.Itemset
	Expected float64
	// Source is the large itemset the candidate was derived from.
	Source item.Itemset
	// Via tells whether members were swapped for children or siblings.
	Via Mode
}

// generator accumulates candidate negative itemsets across large itemsets,
// deduplicating on the itemset and keeping the largest expected support
// (paper §2.1.1: "In such situations the largest value of the expected
// support is chosen"); among equal expectations the first path generated
// wins. The walk touches no map and allocates nothing until a candidate is
// first recorded: single-item supports come from a dense slice, choice lists
// are shared or cached, and sets are normalized and keyed in scratch buffers.
type generator struct {
	tax   *taxonomy.Taxonomy
	table *item.SupportTable // generalized large-itemset supports
	// minExpected is MinSup·MinRI: candidates whose expected support does
	// not exceed it can never yield a rule with RI ≥ MinRI and are pruned
	// at generation time.
	minExpected float64
	// sup is singleSupports(table, tax.Size()). In the Improved driver the
	// taxonomy is pre-compressed so children/sibling lists contain only
	// large items, but kept members and replacements are still checked
	// against it for safety.
	sup []float64
	// subs maps an item to its declared substitute partners (extra
	// sibling-like choices beyond the taxonomy).
	subs map[item.Item][]item.Item
	sibs [][]item.Item // siblingChoices per taxonomy id; nil = not built yet

	out     map[item.Key]int32 // candidate → its slot in best
	best    []prov
	sources []item.Itemset // the large itemsets walked so far

	// The walk in progress, and scratch every walk reuses.
	l      item.Itemset
	supL   float64
	via    Mode
	picked []item.Item // one choice per position of l
	set    []item.Item // picked, sorted
	key    []byte      // set, encoded
}

// prov is the best generation path seen for a candidate so far.
type prov struct {
	key      item.Key
	expected float64
	source   int32 // index into generator.sources
	via      Mode
}

// singleSupports is the dense view of table's 1-itemsets over the item ids
// [0, n): the relative support of {x}, or -1 when {x} is not large. One
// item's support is read at every keep/replace choice of the walk and by the
// taxonomy-compression predicate, so it is looked up by id, not by key.
func singleSupports(table *item.SupportTable, n int) []float64 {
	sup := make([]float64, n)
	var key []byte
	for x := range sup {
		key = item.Itemset{item.Item(x)}.AppendKey(key[:0])
		s, ok := table.SupportBytes(key)
		if !ok {
			s = -1
		}
		sup[x] = s
	}
	return sup
}

func newGenerator(tax *taxonomy.Taxonomy, table *item.SupportTable, sup []float64, minSup, minRI float64, substitutes []item.Itemset) *generator {
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
	return &generator{
		tax:         tax,
		table:       table,
		minExpected: minSup * minRI,
		sup:         sup,
		subs:        subs,
		sibs:        make([][]item.Item, tax.Size()),
		out:         make(map[item.Key]int32),
	}
}

// support returns the relative support of the single item x and whether x
// is large. Ids the taxonomy does not cover fall back to the table.
func (g *generator) support(x item.Item) (float64, bool) {
	if x >= 0 && int(x) < len(g.sup) {
		s := g.sup[x]
		return s, s >= 0
	}
	return g.table.Support(item.Itemset{x})
}

// siblingChoices returns the taxonomy siblings of x plus its declared
// substitute partners, deduplicated. The list is built once per item.
func (g *generator) siblingChoices(x item.Item) []item.Item {
	if x < 0 || int(x) >= len(g.sibs) {
		return g.buildSiblingChoices(x)
	}
	if g.sibs[x] == nil {
		g.sibs[x] = g.buildSiblingChoices(x)
	}
	return g.sibs[x]
}

func (g *generator) buildSiblingChoices(x item.Item) []item.Item {
	sibs := g.tax.Siblings(x)
	out := make([]item.Item, 0, len(sibs)+len(g.subs[x]))
	out = append(out, sibs...)
	for _, s := range g.subs[x] {
		if s != x && !slices.Contains(out, s) {
			out = append(out, s)
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
// uniformity assumption.
func (g *generator) fromLarge(l item.Itemset) {
	g.key = l.AppendKey(g.key[:0])
	supL, ok := g.table.SupportBytes(g.key)
	if !ok || supL == 0 {
		return
	}
	g.l, g.supL = l, supL
	g.sources = append(g.sources, l)
	if len(g.picked) < len(l) {
		g.picked = make([]item.Item, len(l))
	}
	// Children modes: any non-empty subset replaced (cases 1 and 2 merge).
	g.via = ViaChildren
	g.walk(0, 0, 0, 1)
	// Sibling mode: proper subset replaced (case 3). Choices include
	// declared substitute partners (the §4.1 extension).
	g.via = ViaSiblings
	g.walk(0, 0, 0, 1)
}

// walk decides keep-vs-replace for position pos of g.l and recurses,
// multiplying the support ratio of each replacement. Sibling mode forces at
// least one kept member.
func (g *generator) walk(pos, kept, replaced int, ratio float64) {
	if pos == len(g.l) {
		if replaced > 0 && (kept > 0 || g.via == ViaChildren) {
			g.emit(g.supL * ratio)
		}
		return
	}
	x := g.l[pos]
	// Keep.
	if g.place(pos, x) {
		g.walk(pos+1, kept+1, replaced, ratio)
	}
	// Replace by each large choice with known support.
	supX, okX := g.support(x)
	if !okX || supX == 0 {
		return
	}
	choices := g.tax.Children(x)
	if g.via == ViaSiblings {
		choices = g.siblingChoices(x)
	}
	for _, r := range choices {
		supR, okR := g.support(r)
		if !okR {
			continue
		}
		next := ratio * supR / supX
		// The scaled expectation can only shrink further; cut the
		// whole branch when it is already below the floor.
		if g.supL*next <= g.minExpected {
			continue
		}
		if g.place(pos, r) {
			g.walk(pos+1, kept, replaced+1, next)
		}
	}
}

// place puts y at position pos of the set being assembled, unless y makes
// every completion of it invalid: y equals an earlier pick (a replacement
// collided with another member), or is an ancestor or descendant of one — a
// member paired with its own ancestor has degenerate support semantics, and
// such sets never appear among large itemsets either. Any offending pair is
// caught when its later member is placed.
func (g *generator) place(pos int, y item.Item) bool {
	for _, p := range g.picked[:pos] {
		if p == y || g.tax.IsAncestor(p, y) || g.tax.IsAncestor(y, p) {
			return false
		}
	}
	g.picked[pos] = y
	return true
}

// emit normalizes and records the picked set. Its expected support already
// cleared the floor at the last replacement.
func (g *generator) emit(expected float64) {
	set := g.set[:0]
	for _, y := range g.picked[:len(g.l)] {
		i := len(set)
		set = append(set, y)
		for ; i > 0 && set[i-1] > y; i-- {
			set[i] = set[i-1]
		}
		set[i] = y
	}
	g.set = set
	g.key = item.Itemset(set).AppendKey(g.key[:0])
	if _, large := g.table.SupportBytes(g.key); large {
		return // already found large: not a negative candidate
	}
	p := prov{expected: expected, source: int32(len(g.sources) - 1), via: g.via}
	if i, ok := g.out[item.Key(g.key)]; !ok {
		p.key = item.Key(g.key)
		g.out[p.key] = int32(len(g.best))
		g.best = append(g.best, p)
	} else if expected > g.best[i].expected {
		p.key = g.best[i].key
		g.best[i] = p
	}
}

// candidates returns the accumulated candidates sorted by itemset. Source
// shares the large itemset's backing array.
func (g *generator) candidates() []Candidate {
	out := make([]Candidate, len(g.best))
	for i, p := range g.best {
		out[i] = Candidate{Set: p.key.Itemset(), Expected: p.expected, Source: g.sources[p.source], Via: p.via}
	}
	slices.SortFunc(out, func(a, b Candidate) int { return a.Set.Compare(b.Set) })
	return out
}

// GenerateCandidates produces the candidate negative itemsets derivable
// from every large itemset of size ≥ 2 in table, using tax for
// children/sibling lookups. It is exported for tests, benchmarks and the
// candidate-count experiment (Figure 7); the mining drivers use it
// internally.
func GenerateCandidates(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, minSup, minRI float64, substitutes []item.Itemset) []Candidate {
	return generateCandidates(levels, table, tax, singleSupports(table, tax.Size()), minSup, minRI, substitutes)
}

// generateCandidates is GenerateCandidates for a caller that already holds
// singleSupports(table, tax.Size()).
func generateCandidates(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, sup []float64, minSup, minRI float64, substitutes []item.Itemset) []Candidate {
	g := newGenerator(tax, table, sup, minSup, minRI, substitutes)
	for k := 2; k <= len(levels); k++ {
		for _, cs := range levels[k-1] {
			g.fromLarge(cs.Set)
		}
	}
	return g.candidates()
}

// EstimateCandidates evaluates the paper's §2.1.2 closed-form estimate of
// the number of candidates generated from one large k-itemset with average
// taxonomy fanout f:
//
//	Σ_{i=1..k} C(k, i)·f^i + k·(f − 1)
//
// (children replacements over every non-empty subset, plus sibling
// replacements of single members).
func EstimateCandidates(k int, f float64) float64 {
	sum := 0.0
	for i := 1; i <= k; i++ {
		sum += binom(k, i) * math.Pow(f, float64(i))
	}
	return sum + float64(k)*(f-1)
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

package negative

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// WalkStats counts what candidate generation did: the large itemsets walked,
// the keep/replace decisions visited, the branches cut at the expectation
// floor, and the completed sets by outcome — Emitted = AlreadyLarge +
// Duplicates + Recorded, Recorded being the distinct candidates.
type WalkStats struct {
	Sources, Visited, FloorCuts, Emitted, AlreadyLarge, Duplicates, Recorded int
}

func (s *WalkStats) add(o WalkStats) {
	s.Sources += o.Sources
	s.Visited += o.Visited
	s.FloorCuts += o.FloorCuts
	s.Emitted += o.Emitted
	s.AlreadyLarge += o.AlreadyLarge
	s.Duplicates += o.Duplicates
	s.Recorded += o.Recorded
}

// inputs is what the workers of one generateCandidates call share, read-only.
type inputs struct {
	tax   *taxonomy.Taxonomy
	table *item.SupportTable // generalized large-itemset supports
	// minExpected is MinSup·MinRI: candidates whose expected support does
	// not exceed it can never yield a rule with RI ≥ MinRI and are pruned
	// at generation time. cutBelow is the same floor less a relative slack,
	// for bounds whose factors are not multiplied in the walk's order.
	minExpected, cutBelow float64
	// sup is singleSupports(table, tax.Size()). In the Improved driver the
	// taxonomy is pre-compressed so children/sibling lists contain only
	// large items, but kept members and replacements are still checked
	// against it for safety.
	sup []float64
	// subs maps an item to its declared substitute partners (extra
	// sibling-like choices beyond the taxonomy).
	subs map[item.Item][]item.Item
	// sources are the large itemsets to walk, levels ascending. An emitted set
	// has the size of its source, so large — every large itemset of a walked
	// size — lists the sets a probe can find large.
	sources []item.Itemset
	large   []item.Key
}

func newInputs(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, sup []float64, opt Options) *inputs {
	in := &inputs{tax: tax, table: table, minExpected: opt.MinSupport * opt.MinRI, sup: sup, subs: map[item.Item][]item.Item{}}
	in.cutBelow = in.minExpected * (1 - 1e-9)
	for _, group := range opt.Substitutes {
		for _, x := range group {
			for _, y := range group {
				if x != y {
					in.subs[x] = append(in.subs[x], y)
				}
			}
		}
	}
	walked := make([]bool, len(levels)+1)
	for k := 2; k <= len(levels); k++ {
		for _, cs := range levels[k-1] {
			in.sources = append(in.sources, cs.Set)
		}
		walked[k] = len(levels[k-1]) > 0
	}
	table.EachKey(func(k item.Key) {
		if n := k.Len(); n < len(walked) && walked[n] {
			in.large = append(in.large, k)
		}
	})
	return in
}

// generator accumulates candidate negative itemsets across the large itemsets
// one worker walks, deduplicating on the itemset and keeping the largest
// expected support (paper §2.1.1: "In such situations the largest value of the
// expected support is chosen"); among equal expectations the first path
// generated wins. The walk allocates nothing until a candidate is first
// recorded: single-item supports come from a dense slice, choice lists are
// shared or cached, and sets are normalized and keyed in scratch buffers.
type generator struct {
	inputs
	sibs [][]item.Item // siblingChoices per taxonomy id; nil = not built yet
	grow [2][]float64  // maxGrowth per mode and taxonomy id; 0 = not computed yet

	// out maps a set of a walked size to its slot in best, or to isLarge when
	// the set is a large itemset: one probe classifies an emitted set.
	out   map[item.Key]int32
	best  []prov
	stats WalkStats

	// The walk in progress, and scratch every walk reuses.
	l       item.Itemset
	src     int32 // l is sources[src]
	supL    float64
	via     Mode
	suffix  []float64   // suffix[pos]: the most positions pos… of l can multiply the ratio by
	keepOne []float64   // the same when one of them must keep its member
	picked  []item.Item // one choice per position of l
	set     []item.Item // picked, sorted
	key     []byte      // set, encoded
}

// isLarge is the slot out holds for a large itemset.
const isLarge = -1

// prov is the best generation path seen for a candidate so far.
type prov struct {
	key      item.Key
	expected float64
	source   int32 // index into inputs.sources
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

// newGenerator returns a generator for one worker.
func (in *inputs) newGenerator() *generator {
	g := &generator{
		inputs: *in,
		sibs:   make([][]item.Item, in.tax.Size()),
		grow:   [2][]float64{make([]float64, len(in.sup)), make([]float64, len(in.sup))},
		out:    make(map[item.Key]int32, len(in.large)),
	}
	for _, k := range in.large {
		g.out[k] = isLarge
	}
	return g
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

// choices lists what may replace x in the mode being walked.
func (g *generator) choices(x item.Item) []item.Item {
	if g.via == ViaSiblings {
		return g.siblingChoices(x)
	}
	return g.tax.Children(x)
}

// maxGrowth is the most the position holding x can multiply the ratio by in
// the mode being walked: 1 for keeping x, or the largest sup(r)/sup(x) over its
// large choices — above 1 for a sibling more popular than x, never for a child
// where the supports were counted.
func (g *generator) maxGrowth(x item.Item) float64 {
	dense := x >= 0 && int(x) < len(g.sup)
	if dense && g.grow[g.via][x] != 0 {
		return g.grow[g.via][x]
	}
	m := 1.0
	if supX, ok := g.support(x); ok && supX > 0 {
		for _, r := range g.choices(x) {
			if supR, ok := g.support(r); ok {
				m = max(m, supR/supX)
			}
		}
	}
	if dense {
		g.grow[g.via][x] = m
	}
	return m
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
func (g *generator) fromLarge(src int32) {
	l := g.sources[src]
	g.key = l.AppendKey(g.key[:0])
	supL, ok := g.table.SupportBytes(g.key)
	if !ok || supL == 0 {
		return
	}
	g.l, g.src, g.supL = l, src, supL
	g.stats.Sources++
	if len(g.picked) < len(l) {
		g.picked, g.suffix, g.keepOne = make([]item.Item, len(l)), make([]float64, len(l)+1), make([]float64, len(l)+1)
	}
	// Children mode: any non-empty subset replaced (cases 1 and 2 merge).
	// Sibling mode: a proper subset replaced (case 3); choices include
	// declared substitute partners (the §4.1 extension).
	for _, via := range [...]Mode{ViaChildren, ViaSiblings} {
		g.via = via
		g.suffix[len(l)] = 1
		least := math.Inf(1)
		for i := len(l) - 1; i > 0; i-- {
			grow := g.maxGrowth(l[i])
			least = min(least, grow)
			g.suffix[i] = g.suffix[i+1] * grow
			g.keepOne[i] = g.suffix[i] / least
		}
		g.walk(0, 0, 0, 1)
	}
}

// walk decides keep-vs-replace for position pos of g.l and recurses,
// multiplying the support ratio of each replacement.
func (g *generator) walk(pos, kept, replaced int, ratio float64) {
	g.stats.Visited++
	if pos == len(g.l) {
		if expected := g.supL * ratio; replaced > 0 && expected > g.minExpected {
			g.emit(expected)
		}
		return
	}
	x := g.l[pos]
	// Keep.
	if g.place(pos, x) {
		g.walk(pos+1, kept+1, replaced, ratio)
	}
	// A branch is cut when the most the later positions can lift the scaled
	// expectation to is below the floor. The running product alone is no
	// bound: a more popular sibling later on lifts it back.
	most := g.supL * g.suffix[pos+1]
	if g.via == ViaSiblings && kept == 0 {
		// Case 3 replaces a proper subset: with no member kept so far the
		// last one stays — none of its siblings is tried — and before that
		// one of the later positions keeps its member.
		if pos == len(g.l)-1 {
			return
		}
		most = g.supL * g.keepOne[pos+1]
	}
	// Replace by each large choice with known support.
	supX, okX := g.support(x)
	if !okX || supX == 0 {
		return
	}
	for _, r := range g.choices(x) {
		supR, okR := g.support(r)
		if !okR {
			continue
		}
		next := ratio * supR / supX
		if next*most <= g.cutBelow {
			g.stats.FloorCuts++
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

// emit normalizes the picked set and records it unless it is a large itemset
// or a candidate already held with at least this expectation.
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
	g.stats.Emitted++
	i, ok := g.out[item.Key(g.key)] // this form of lookup does not copy key
	switch {
	case !ok:
		g.stats.Recorded++
		key := item.Key(g.key)
		g.out[key] = int32(len(g.best))
		g.best = append(g.best, prov{key, expected, g.src, g.via})
	case i == isLarge:
		g.stats.AlreadyLarge++ // already found large: not a negative candidate
	default:
		g.stats.Duplicates++
		if expected > g.best[i].expected {
			g.best[i] = prov{g.best[i].key, expected, g.src, g.via}
		}
	}
}

// merge folds what another worker recorded into g. A larger expectation wins,
// and an equal one goes to the lower source: a source is walked wholly by one
// worker, so that is the path a single worker would have generated first.
func (g *generator) merge(o *generator) {
	for _, p := range o.best {
		i, ok := g.out[p.key]
		if !ok {
			g.out[p.key] = int32(len(g.best))
			g.best = append(g.best, p)
			continue
		}
		// Both recorded it: to one worker the second would have been a duplicate.
		o.stats.Recorded--
		o.stats.Duplicates++
		if b := g.best[i]; p.expected > b.expected || p.expected == b.expected && p.source < b.source {
			g.best[i] = p
		}
	}
	g.stats.add(o.stats)
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
	cands, _ := generateCandidates(levels, table, tax, singleSupports(table, tax.Size()),
		Options{MinSupport: minSup, MinRI: minRI, Substitutes: substitutes})
	return cands
}

// generateCandidates is GenerateCandidates for a caller that already holds
// sup = singleSupports(table, tax.Size()), on opt.Count.Parallelism workers
// (at least one, the caller's goroutine). Each walks into its own generator
// the sources it takes from a shared counter — one at a time, not a share up
// front: levels ascend, and a source costs more the larger it is and the nearer
// the roots — and the generators are merged into the first. The candidates are
// the same whatever the number of workers.
func generateCandidates(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, sup []float64, opt Options) ([]Candidate, WalkStats) {
	in := newInputs(levels, table, tax, sup, opt)
	gens := make([]*generator, max(1, min(opt.Count.Parallelism, len(in.sources))))
	var next atomic.Int64
	run := func(w int) {
		g := in.newGenerator()
		gens[w] = g
		for i := next.Add(1) - 1; i < int64(len(in.sources)); i = next.Add(1) - 1 {
			g.fromLarge(int32(i))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(gens); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	g := gens[0]
	for _, o := range gens[1:] {
		g.merge(o)
	}
	return g.candidates(), g.stats
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

package negative

import (
	"cmp"
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

// WalkStats counts what candidate generation did. Sources is the large
// itemsets walked: each through its children (Cases 1–2), and through its
// siblings (Case 3) only when its sibling class cannot stand for it — when a
// member has declared substitutes, say; every other Case-3 set is enumerated
// once for its class. A visit is a keep/replace decision of a walk or a
// member placed by a class enumeration; a floor cut is a branch either of
// them cut at the expectation floor, or a completed class set whose exact
// expectation did not clear it. An emission is a completed set, probed once:
// Emitted = AlreadyLarge + Duplicates + Recorded, Recorded being the distinct
// candidates, and Case3 counts the emissions Case 3 made.
type WalkStats struct {
	Sources, Visited, FloorCuts, Emitted, AlreadyLarge, Duplicates, Recorded, Case3 int
}

func (s *WalkStats) add(o WalkStats) {
	s.Sources += o.Sources
	s.Visited += o.Visited
	s.FloorCuts += o.FloorCuts
	s.Emitted += o.Emitted
	s.AlreadyLarge += o.AlreadyLarge
	s.Duplicates += o.Duplicates
	s.Recorded += o.Recorded
	s.Case3 += o.Case3
}

// inputs is what the workers of one generateCandidates call share, read-only.
type inputs struct {
	tax   *taxonomy.Taxonomy
	table *item.SupportTable // generalized large-itemset supports
	// minExpected is MinSup·MinRI: candidates whose expected support does
	// not exceed it can never yield a rule with RI ≥ MinRI and are pruned
	// at generation time. cutBelow is the same floor less a relative slack,
	// for bounds whose factors are not multiplied in the walk's order, and
	// nearFloor the same floor plus that slack: a class set whose estimate
	// exceeds it has an exact expectation above the floor.
	minExpected, cutBelow, nearFloor float64
	// sup is singleSupports(table, tax.Size()). In the Improved driver the
	// taxonomy is pre-compressed so children/sibling lists contain only
	// large items, but kept members and replacements are still checked
	// against it for safety.
	sup []float64
	// subs maps an item to its declared substitute partners (extra
	// sibling-like choices beyond the taxonomy).
	subs map[item.Item][]item.Item
	// sources are the large itemsets to walk, levels ascending, and sourceSup
	// their supports (0 for one without: it is not walked). An emitted set
	// has the size of its source, so it is large exactly when table holds it.
	sources   []item.Itemset
	sourceSup []float64

	// regular[s] tells that Case 3 of sources[s] is left to its sibling
	// class. The tasks are the sources, then the anchors of every class.
	regular []bool
	classes []class
	anchors []anchor
	idBound int // every item a class set may hold is below it
}

func newInputs(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, sup []float64, opt Options) *inputs {
	in := &inputs{tax: tax, table: table, minExpected: opt.MinSupport * opt.MinRI, sup: sup, subs: map[item.Item][]item.Item{}}
	in.cutBelow, in.nearFloor = in.minExpected*(1-floorSlack), in.minExpected*(1+floorSlack)
	for _, group := range opt.Substitutes {
		for _, x := range group {
			for _, y := range group {
				if x != y {
					in.subs[x] = append(in.subs[x], y)
				}
			}
		}
	}
	for _, lvl := range levels[min(1, len(levels)):] {
		for _, cs := range lvl {
			in.sources = append(in.sources, cs.Set)
		}
	}
	in.classify()
	return in
}

// floorSlack is the relative error allowed for an expectation whose factors
// are not multiplied in the walk's order: a few ulps per factor, many times
// over.
const floorSlack = 1e-9

// Case 3 by sibling class. On any Case-3 path from a source l to a set C the
// kept members cancel, so its expectation is w(l)·Π_{c∈C} sup(c) with
// w(l) = sup(l)/Π_{x∈l} sup(x). A member's group is its parent, the roots
// for a root, and itself alone for an id the taxonomy lacks; a class is the
// sources whose members fill the same groups, as many each. From one of
// them the walk reaches exactly the sets of the class — a large member of
// each group per slot — that share a member with it and are not it, so a
// set's expectation is Π sup(c) times the largest W(x) over its members x,
// W(x) being the largest w over the class sources holding x. Each set is
// enumerated once, from its member of highest W (its anchor), and its
// expectation is then recomputed exactly as the walk would multiply it.

// class is one sibling class.
type class struct {
	groups  []group  // ascending by group id
	anchors []anchor // the members of its sources, by W descending, then item
}

// group is one group of a class: its members that are large with positive
// support, by support descending, then item, and how many a set holds.
type group struct {
	id   int64
	pool []item.Item
	n    int
}

// anchor is a member x of a class's sources. w is W(x), and srcs the class
// sources holding x by w descending, then source.
type anchor struct {
	x    item.Item
	cls  int32 // index into inputs.classes
	rank int32 // index into the class's anchors
	grp  int32 // index into the class's groups
	w    float64
	srcs []weighted
}

// weighted is a class source holding x, with its w.
type weighted struct {
	x   item.Item
	src int32
	w   float64
}

// Group ids: a parent's is its item, the roots' is rootGroup, and an id the
// taxonomy lacks has offGroup + id.
const (
	rootGroup = int64(item.None)
	offGroup  = int64(1) << 32
)

func (in *inputs) groupOf(x item.Item) int64 {
	if int(x) >= in.tax.Size() {
		return offGroup + int64(x)
	}
	return int64(in.tax.Parent(x))
}

// weight returns w(l) and whether l is regular: its support and its
// members' are positive, no member has declared substitutes, and each
// member is a sibling of exactly the other members of its group — not so
// for a node a restriction dropped, which has no parent and is no root, so
// that the roots are its siblings but it is none of theirs. Class sets are
// tracked in a 64-bit mask, so no more than 64 members.
func (in *inputs) weight(l item.Itemset, supL float64, root []bool) (float64, bool) {
	if supL <= 0 || len(l) > 64 {
		return 0, false
	}
	prod := 1.0
	for _, x := range l {
		if x < 0 || len(in.subs[x]) > 0 || int(x) < len(root) && !root[x] && in.tax.Parent(x) == item.None {
			return 0, false
		}
		s, ok := in.support(x)
		if !ok || s <= 0 {
			return 0, false
		}
		prod *= s
	}
	return supL / prod, true
}

// classify reads each source's support, marks the regular ones and builds
// their classes, one allocation per table rather than per class.
func (in *inputs) classify() {
	n, members := len(in.sources), 0
	for _, l := range in.sources {
		members += len(l)
	}
	in.sourceSup, in.regular = make([]float64, n), make([]bool, n)
	root := make([]bool, in.tax.Size())
	for _, r := range in.tax.Roots() {
		root[r] = true
	}
	type regularSource struct {
		src  int32
		w    float64
		gids []int64 // its members' groups, ascending: the class key
	}
	reg := make([]regularSource, 0, n)
	gids := make([]int64, 0, members)
	var key []byte
	for s, l := range in.sources {
		key = l.AppendKey(key[:0])
		in.sourceSup[s], _ = in.table.SupportBytes(key)
		w, ok := in.weight(l, in.sourceSup[s], root)
		if !ok {
			continue
		}
		in.regular[s] = true
		start := len(gids)
		for _, x := range l {
			gids = append(gids, in.groupOf(x))
			in.idBound = max(in.idBound, int(x)+1)
		}
		slices.Sort(gids[start:])
		reg = append(reg, regularSource{int32(s), w, gids[start:len(gids):len(gids)]})
	}
	in.idBound = max(in.idBound, in.tax.Size())
	slices.SortFunc(reg, func(a, b regularSource) int {
		if c := slices.Compare(a.gids, b.gids); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})

	pools := map[int64][]item.Item{}
	poolBuf := make([]item.Item, 0, in.tax.Size()+members)
	groups := make([]group, 0, members)
	entries := make([]weighted, 0, members)
	in.anchors = make([]anchor, 0, members)
	for i := 0; i < len(reg); {
		j := i + 1
		for j < len(reg) && slices.Equal(reg[j].gids, reg[i].gids) {
			j++
		}
		g0 := len(groups)
		for _, id := range reg[i].gids {
			if last := len(groups) - 1; last >= g0 && groups[last].id == id {
				groups[last].n++
				continue
			}
			pool, ok := pools[id]
			if !ok {
				pool, poolBuf = in.pool(id, poolBuf)
				pools[id] = pool
			}
			groups = append(groups, group{id: id, pool: pool, n: 1})
		}
		c := class{groups: groups[g0:len(groups):len(groups)]}

		e0 := len(entries)
		for _, r := range reg[i:j] {
			for _, x := range in.sources[r.src] {
				entries = append(entries, weighted{x, r.src, r.w})
			}
		}
		seg := entries[e0:]
		slices.SortFunc(seg, func(a, b weighted) int {
			if a.x != b.x {
				return cmp.Compare(a.x, b.x)
			}
			if a.w != b.w {
				return cmp.Compare(b.w, a.w)
			}
			return cmp.Compare(a.src, b.src)
		})
		a0 := len(in.anchors)
		for e := 0; e < len(seg); {
			f := e + 1
			for f < len(seg) && seg[f].x == seg[e].x {
				f++
			}
			x := seg[e].x
			grp := slices.IndexFunc(c.groups, func(g group) bool { return g.id == in.groupOf(x) })
			in.anchors = append(in.anchors, anchor{x: x, cls: int32(len(in.classes)), grp: int32(grp), w: seg[e].w, srcs: seg[e:f:f]})
			e = f
		}
		c.anchors = in.anchors[a0:len(in.anchors):len(in.anchors)]
		slices.SortFunc(c.anchors, func(a, b anchor) int {
			if a.w != b.w {
				return cmp.Compare(b.w, a.w)
			}
			return cmp.Compare(a.x, b.x)
		})
		for r := range c.anchors {
			c.anchors[r].rank = int32(r)
		}
		in.classes = append(in.classes, c)
		i = j
	}
}

// pool appends to buf the members of group id that are large with positive
// support, by support descending, then item, and returns them and buf.
func (in *inputs) pool(id int64, buf []item.Item) ([]item.Item, []item.Item) {
	var from []item.Item
	switch {
	case id == rootGroup:
		from = in.tax.Roots()
	case id >= offGroup:
		from = []item.Item{item.Item(id - offGroup)}
	default:
		from = in.tax.Children(item.Item(id))
	}
	start := len(buf)
	for _, x := range from {
		if s, ok := in.support(x); ok && s > 0 {
			buf = append(buf, x)
		}
	}
	pool := buf[start:len(buf):len(buf)]
	slices.SortFunc(pool, func(a, b item.Item) int {
		sa, _ := in.support(a)
		sb, _ := in.support(b)
		if sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(a, b)
	})
	return pool, buf
}

// generator accumulates candidate negative itemsets across the tasks one
// worker runs. Every emitted set that is not large is recorded with its path;
// finish then keeps one path per set, the largest expected support (paper
// §2.1.1: "In such situations the largest value of the expected support is
// chosen") and, among equal expectations, the path the reference order
// generates first — see beats. A task allocates nothing but the growth of
// what it records: single-item supports come from a dense slice, choice lists
// are shared or cached, and sets are normalized and keyed in scratch buffers.
type generator struct {
	inputs
	sibs [][]item.Item // siblingChoices per taxonomy id; nil = not built yet
	grow [2][]float64  // maxGrowth per mode and taxonomy id; 0 = not computed yet

	// recs are the recorded paths, their sets back to back in items; after
	// finish, one per set, sorted by set.
	recs  []prov
	items []item.Item
	stats WalkStats

	// The walk in progress, and scratch every walk reuses.
	l       item.Itemset
	src     int32 // l is sources[src]
	supL    float64
	via     Mode
	suffix  []float64   // suffix[pos]: the most positions pos… of l can multiply the ratio by
	keepOne []float64   // the same when one of them must keep its member
	picked  []item.Item // one choice per position of l, or the class set being enumerated
	set     []item.Item // picked, sorted
	key     []byte      // set, encoded

	// The class enumeration in progress: its anchor and class, W(x)·sup(x) of
	// the anchor x, and rest[j], the most groups j… can multiply it by.
	// mark[y] == epoch marks the anchors ranked above this one.
	anc    *anchor
	cls    *class
	base   float64
	rest   []float64
	mark   []int32
	epoch  int32
	xs, ys []member // a source and the class set, for pathRatio
}

// prov is a generation path to a candidate. Its set, as long as its source,
// is items[off:] of the generator that recorded it.
type prov struct {
	expected float64
	off      int32
	source   int32 // index into inputs.sources
	via      Mode
}

// setOf returns the set of path p, which g recorded.
func (g *generator) setOf(p prov) item.Itemset {
	return g.items[p.off : int(p.off)+len(g.sources[p.source])]
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
	}
	if len(in.anchors) > 0 {
		g.mark = make([]int32, in.idBound)
	}
	return g
}

// support returns the relative support of the single item x and whether x
// is large. Ids the taxonomy does not cover fall back to the table.
func (in *inputs) support(x item.Item) (float64, bool) {
	if x >= 0 && int(x) < len(in.sup) {
		s := in.sup[x]
		return s, s >= 0
	}
	return in.table.Support(item.Itemset{x})
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

// fromLarge generates the candidates derivable from the large itemset l
// (paper cases 1–3):
//
//	Case 1: every member replaced by one of its children.
//	Case 2: a proper non-empty subset of members replaced by children.
//	Case 3: a proper non-empty subset of members replaced by siblings
//	        (at least one member kept; all-sibling sets are excluded).
//
// In every case the expected support is sup(l) scaled by
// Π sup(replacement)/sup(original) over the replaced members — the
// uniformity assumption. Case 3 of a regular source is its class's, done by
// fromAnchor.
func (g *generator) fromLarge(src int32) {
	l, supL := g.sources[src], g.sourceSup[src]
	if supL == 0 {
		return
	}
	g.l, g.src, g.supL = l, src, supL
	g.stats.Sources++
	g.scratch(len(l))
	// Children mode: any non-empty subset replaced (cases 1 and 2 merge).
	// Sibling mode: a proper subset replaced (case 3); choices include
	// declared substitute partners (the §4.1 extension).
	modes := [...]Mode{ViaChildren, ViaSiblings}
	walked := modes[:]
	if g.regular[src] {
		walked = modes[:1]
	}
	for _, via := range walked {
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

// scratch sizes the per-position scratch for sets of k members.
func (g *generator) scratch(k int) {
	if len(g.picked) < k {
		g.picked, g.suffix, g.keepOne = make([]item.Item, k), make([]float64, k+1), make([]float64, k+1)
		g.rest, g.xs, g.ys = make([]float64, k+1), make([]member, k), make([]member, k)
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

// emit records the set the walk completed unless it is a large itemset.
func (g *generator) emit(expected float64) {
	if !g.probe(g.picked[:len(g.l)], g.via) {
		g.record(prov{expected: expected, source: g.src, via: g.via})
	}
}

// probe counts one emission: it normalizes picked into g.set and reports
// whether that is a large itemset.
func (g *generator) probe(picked []item.Item, via Mode) bool {
	set := g.set[:0]
	for _, y := range picked {
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
	if via == ViaSiblings {
		g.stats.Case3++
	}
	if _, large := g.table.SupportBytes(g.key); large {
		g.stats.AlreadyLarge++ // already found large: not a negative candidate
		return true
	}
	return false
}

// record keeps path p to the set probe just normalized.
func (g *generator) record(p prov) {
	p.off = int32(len(g.items))
	g.items = append(g.items, g.set...)
	g.recs = append(g.recs, p)
}

// beats reports whether path p wins over path q to the same set: a larger
// expectation, then a lower source, then children over siblings — of equal
// paths, the first in the reference order (sources ascending, each through
// its children before its siblings), in whatever order the tasks ran.
func (p prov) beats(q prov) bool {
	return p.expected > q.expected || p.expected == q.expected && (p.source < q.source || p.source == q.source && p.via < q.via)
}

// fromAnchor enumerates the sets of anchor a's class whose highest-ranked
// anchor is a: a's group gives a and n−1 more members, every other group n,
// none of them ranked above a, each group's in pool order — support
// descending, so that a pick whose bound falls to the floor ends its group's
// loop.
func (g *generator) fromAnchor(a *anchor) {
	c := &g.classes[a.cls]
	g.epoch++
	for _, b := range c.anchors[:a.rank] {
		g.mark[b.x] = g.epoch
	}
	k := 0
	for _, gr := range c.groups {
		k += gr.n
	}
	g.scratch(k)
	g.anc, g.cls = a, c
	supA, _ := g.support(a.x)
	g.base = a.w * supA
	g.rest[len(c.groups)] = 1
	for j := len(c.groups) - 1; j >= 0; j-- {
		most := g.rest[j+1]
		for _, y := range c.groups[j].pool[:g.owed(j)] {
			s, _ := g.support(y)
			most *= s
		}
		g.rest[j] = most
	}
	g.picked[0] = a.x
	g.enumerate(-1, 0, 0, 1, 1)
}

// owed is how many members group j of the class adds to the anchor.
func (g *generator) owed(j int) int {
	if j == int(g.anc.grp) {
		return g.cls.groups[j].n - 1
	}
	return g.cls.groups[j].n
}

// enumerate places the members group j still owes (left of them, from pool
// index start on) and those of the groups after it; placed members are in
// g.picked, prod the product of their supports but the anchor's.
func (g *generator) enumerate(j, start, left, placed int, prod float64) {
	groups := g.cls.groups
	for left == 0 {
		if j++; j == len(groups) {
			g.complete(placed, prod)
			return
		}
		start, left = 0, g.owed(j)
	}
	pool := groups[j].pool
	for i := start; i < len(pool); i++ {
		y := pool[i]
		if y == g.anc.x || g.mark[y] == g.epoch {
			continue
		}
		s, _ := g.support(y)
		most := g.base * prod * g.rest[j+1]
		for range left {
			most *= s
		}
		if most <= g.cutBelow {
			g.stats.FloorCuts++
			break
		}
		if !g.place(placed, y) {
			continue
		}
		g.stats.Visited++
		g.enumerate(j, i+1, left-1, placed+1, prod*s)
	}
}

// complete emits the class set in g.picked[:k], with the exact expectation
// and source of its best path, unless that falls to the floor.
func (g *generator) complete(k int, prod float64) {
	picked := g.picked[:k]
	var best prov
	near := g.base*prod <= g.nearFloor
	if near {
		if best = g.exact(picked); !(best.expected > g.minExpected) {
			g.stats.FloorCuts++
			return
		}
	}
	if g.probe(picked, ViaSiblings) {
		return
	}
	if !near {
		best = g.exact(picked)
	}
	g.record(best)
}

// exact returns the best path to set from the class's sources: every source
// whose estimate is within the slack of the best one's is recomputed as the
// walk multiplies it, and the largest expectation wins, then the lower
// source.
func (g *generator) exact(set []item.Item) prov {
	for j, y := range set {
		g.ys[j] = g.member(y)
	}
	best := prov{expected: math.Inf(-1), source: math.MaxInt32, via: ViaSiblings}
	band := g.anc.w * (1 - floorSlack)
	for _, b := range g.cls.anchors[g.anc.rank:] {
		if b.w < band {
			break
		}
		if !slices.Contains(set, b.x) {
			continue
		}
		for _, s := range b.srcs {
			if s.w < band {
				break
			}
			l := g.sources[s.src]
			for i, x := range l {
				g.xs[i] = g.member(x)
			}
			p := prov{expected: g.sourceSup[s.src] * pathRatio(g.xs[:len(l)], g.ys[:len(set)], 0, false, false, 1), source: s.src, via: ViaSiblings}
			if p.beats(best) {
				best = p
			}
		}
	}
	return best
}

// member is an item of a source or a class set as pathRatio reads it.
type member struct {
	x     item.Item
	group int64
	sup   float64
}

func (g *generator) member(x item.Item) member {
	s, _ := g.support(x)
	return member{x, g.groupOf(x), s}
}

// pathRatio returns the largest support ratio a Case-3 path from the source
// l to set multiplies, position by position as walk does: each position of l
// keeps its member or takes an unused member of set from its group, at least
// one keeps and one replaces. used marks the members of set taken.
func pathRatio(l, set []member, used uint64, kept, replaced bool, ratio float64) float64 {
	if len(l) == 0 {
		if kept && replaced {
			return ratio
		}
		return math.Inf(-1)
	}
	x := l[0]
	best := math.Inf(-1)
	for j, y := range set {
		switch {
		case used&(1<<j) != 0 || y.group != x.group:
		case y.x == x.x:
			best = max(best, pathRatio(l[1:], set, used|1<<j, true, replaced, ratio))
		default:
			best = max(best, pathRatio(l[1:], set, used|1<<j, kept, true, ratio*y.sup/x.sup))
		}
	}
	return best
}

// finish sorts what g recorded by set and keeps the path that beats the
// others to each.
func (g *generator) finish() {
	keys := make([]sortKey, len(g.recs))
	for i, p := range g.recs {
		keys[i] = keyOf(g.setOf(p), i)
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return g.setOf(g.recs[a.i]).Compare(g.setOf(g.recs[b.i]))
	})
	best := make([]prov, 0, len(keys))
	for _, k := range keys {
		p := g.recs[k.i]
		if n := len(best) - 1; n >= 0 && g.setOf(best[n]).Equal(g.setOf(p)) {
			g.stats.Duplicates++
			if p.beats(best[n]) {
				best[n] = p
			}
			continue
		}
		best = append(best, p)
	}
	g.recs = best
	g.stats.Recorded = len(best)
}

// sortKey orders sets as Itemset.Compare does, by two integer compares for the
// first four members: item ids are non-negative, each member x is stored as
// x+1 in 32 bits and an absent one as 0, so that a shorter prefix sorts first.
type sortKey struct {
	hi, lo uint64
	i      int // index into generator.recs
}

func keyOf(s item.Itemset, i int) sortKey {
	var m [4]uint64
	for j := range min(len(s), len(m)) {
		m[j] = uint64(s[j]) + 1
	}
	return sortKey{m[0]<<32 | m[1], m[2]<<32 | m[3], i}
}

// merge folds what another finished worker recorded into g, finished too,
// the better path winning where both hold a set. A path taken from o has its
// set copied into g.items.
func (g *generator) merge(o *generator) {
	best := make([]prov, 0, len(g.recs)+len(o.recs))
	take := func(p prov) {
		set := o.setOf(p)
		p.off = int32(len(g.items))
		g.items = append(g.items, set...)
		best = append(best, p)
	}
	i, j := 0, 0
	for i < len(g.recs) || j < len(o.recs) {
		c := -1
		switch {
		case i == len(g.recs):
			c = 1
		case j < len(o.recs):
			c = g.setOf(g.recs[i]).Compare(o.setOf(o.recs[j]))
		}
		switch {
		case c < 0:
			best = append(best, g.recs[i])
			i++
		case c > 0:
			take(o.recs[j])
			j++
		default:
			// Both recorded it: to one worker the second would have been a duplicate.
			o.stats.Recorded--
			o.stats.Duplicates++
			if p := o.recs[j]; p.beats(g.recs[i]) {
				take(p)
			} else {
				best = append(best, g.recs[i])
			}
			i, j = i+1, j+1
		}
	}
	g.recs = best
	g.stats.add(o.stats)
}

// candidates returns the candidates of a finished g, sorted by itemset, their
// sets copied into one backing array. Source shares the large itemset's.
func (g *generator) candidates() []Candidate {
	n := 0
	for _, p := range g.recs {
		n += len(g.sources[p.source])
	}
	flat := make(item.Itemset, 0, n)
	out := make([]Candidate, len(g.recs))
	for i, p := range g.recs {
		start := len(flat)
		flat = append(flat, g.setOf(p)...)
		out[i] = Candidate{Set: flat[start:len(flat):len(flat)], Expected: p.expected, Source: g.sources[p.source], Via: p.via}
	}
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
// (at least one, the caller's goroutine). Each runs into its own generator
// the tasks it takes from a shared counter — one at a time, not a share up
// front: a source costs more the larger it is and the nearer the roots, an
// anchor the more popular it is — and the generators are merged into the
// first, each sorted by its own worker. The candidates are the same whatever
// the number of workers.
func generateCandidates(levels [][]item.CountedSet, table *item.SupportTable, tax *taxonomy.Taxonomy, sup []float64, opt Options) ([]Candidate, WalkStats) {
	in := newInputs(levels, table, tax, sup, opt)
	tasks := int64(len(in.sources) + len(in.anchors))
	gens := make([]*generator, max(1, min(int64(opt.Count.Parallelism), tasks)))
	var next atomic.Int64
	run := func(w int) {
		g := in.newGenerator()
		gens[w] = g
		for i := next.Add(1) - 1; i < tasks; i = next.Add(1) - 1 {
			g.run(int(i))
		}
		g.finish()
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

// run runs task t: the walk of a source, or the sets of an anchor.
func (g *generator) run(t int) {
	if t < len(g.sources) {
		g.fromLarge(int32(t))
		return
	}
	g.fromAnchor(&g.anchors[t-len(g.sources)])
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

package negative

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// Mode records which of the paper's generation cases produced a candidate.
type Mode int

const (
	ViaChildren Mode = iota // cases 1 and 2: members replaced by taxonomy children
	ViaSiblings             // case 3: members replaced by siblings or declared substitutes
)

// String names the mode.
func (m Mode) String() string {
	if m == ViaChildren {
		return "children"
	}
	return "siblings"
}

// Candidate is a candidate negative itemset with its expected support and the
// provenance of the path that assigned it, the best of those that reach it.
type Candidate struct {
	Set      item.Itemset
	Expected float64
	// Source is the large itemset the candidate was derived from.
	Source item.Itemset
	// Via tells whether members were swapped for children or siblings.
	Via Mode
}

// WalkStats counts what candidate generation did. Sources is the large
// itemsets walked: through their children (Cases 1–2), and through their
// siblings (Case 3) only when their class cannot stand for them. A visit is a
// keep/replace decision of a walk or a member placed by a class enumeration;
// a floor cut is a branch of either cut at the floor, or a class set whose
// exact expectation does not clear it. An emission is a completed set:
// Emitted = AlreadyLarge + Duplicates (another path to the set beats it) +
// Recorded (the candidates); Case3 counts the emissions Case 3 made.
type WalkStats struct {
	Sources, Visited, FloorCuts, Emitted, AlreadyLarge, Duplicates, Recorded, Case3 int
}

func (s *WalkStats) add(o WalkStats) {
	*s = WalkStats{s.Sources + o.Sources, s.Visited + o.Visited, s.FloorCuts + o.FloorCuts, s.Emitted + o.Emitted,
		s.AlreadyLarge + o.AlreadyLarge, s.Duplicates + o.Duplicates, s.Recorded + o.Recorded, s.Case3 + o.Case3}
}

// inputs is what the workers of one generateCandidates call share, read-only.
type inputs struct {
	tax *taxonomy.Taxonomy
	// minExpected is MinSup·MinRI: a candidate whose expected support does
	// not exceed it can yield no rule with RI ≥ MinRI. cutBelow is the same
	// floor less the slack, for bounds not multiplied in the walk's order.
	minExpected, cutBelow float64
	sup                   []float64                 // levelSupports(levels[0], total, tax.Size())
	subs                  map[item.Item][]item.Item // an item's declared substitute partners
	// siblings holds, for each member of an irregular source (the only
	// members a sibling walk replaces), its taxonomy siblings and declared
	// substitute partners, deduplicated.
	siblings map[item.Item][]item.Item
	// sources are the large itemsets to walk, levels ascending — the table's
	// itemsets of two members or more, so an emitted set is large exactly when
	// it is one — and sourceSup their supports, read off their levels' counts
	// as the table would read them (0: not walked).
	sources   []item.Itemset
	sourceSup []float64
	// byHash indexes the sources by their Hash, walked the irregular sources
	// of positive support by kinHash and w descending, and kin a group that
	// substitutes join to a lower one.
	byHash item.Index
	walked map[uint64][]weighted
	kin    map[int64]int64

	// regular[s] tells that Case 3 of sources[s] is left to its sibling
	// class. The tasks are the sources, then the anchors of every class. The
	// classes slice anchors, groups and pools, each made once at its counted
	// size.
	regular []bool
	classes []class // ascending by gids
	anchors []anchor
	groups  []group
	pools   []item.Item
	idBound int // every item a class set may hold is below it
}

// kinHash sums item.Mix over the kin of the members, which a sibling walk
// keeps, as item.Itemset.Hash sums it over the members.
func (in *inputs) kinHash(s []item.Item) (h uint64) {
	for _, x := range s {
		h += item.Mix(uint64(in.kinOf(x)))
	}
	return h
}

// kinOf names the groups whose members a sibling walk can put in x's place:
// x's group and those declared substitutes join to it, by the lowest.
func (in *inputs) kinOf(x item.Item) int64 {
	k := in.groupOf(x)
	for next, ok := in.kin[k]; ok; next, ok = in.kin[k] {
		k = next
	}
	return k
}

// find returns the first source equal to set, or -1.
func (in *inputs) find(set []item.Item) int32 {
	h := item.Itemset(set).Hash()
	for s, at := in.byHash.Probe(h); s >= 0; s, at = in.byHash.Next(h, at) {
		if slices.Equal(in.sources[s], set) {
			return s
		}
	}
	return -1
}

func newInputs(levels [][]item.CountedSet, total int, tax *taxonomy.Taxonomy, sup []float64, opt Options) *inputs {
	in := &inputs{tax: tax, minExpected: opt.MinSupport * opt.MinRI, sup: sup, subs: map[item.Item][]item.Item{}, siblings: map[item.Item][]item.Item{}, kin: map[int64]int64{}}
	in.cutBelow = in.minExpected * (1 - floorSlack)
	for _, group := range opt.Substitutes {
		for _, x := range group {
			for _, y := range group {
				if x != y {
					in.subs[x] = append(in.subs[x], y)
					if a, b := in.kinOf(x), in.kinOf(y); a != b {
						in.kin[max(a, b)] = min(a, b)
					}
				}
			}
		}
	}
	n := 0
	for _, lvl := range levels[min(1, len(levels)):] {
		n += len(lvl)
	}
	in.sources, in.sourceSup = make([]item.Itemset, 0, n), make([]float64, 0, n)
	for _, lvl := range levels[min(1, len(levels)):] {
		for _, cs := range lvl {
			in.sources = append(in.sources, cs.Set)
			sup := 0.0 // as the table reads the count
			if total != 0 {
				sup = float64(cs.Count) / float64(total)
			}
			in.sourceSup = append(in.sourceSup, sup)
		}
	}
	in.classify()
	return in
}

// floorSlack is the relative error allowed for an expectation not multiplied
// in the walk's order: a few ulps per factor, many times over.
const floorSlack = 1e-9

// Case 3 by sibling class (DESIGN §6). On a Case-3 path from a source l to a
// set C the kept members cancel: its expectation is w(l)·Π_{c∈C} sup(c), with
// w(l) = sup(l)/Π_{x∈l} sup(x). A class is the sources whose members fill the
// same groups (parent; the roots; an id the taxonomy lacks alone), as many
// each; a set's expectation is Π sup(c) times the largest w of a class source
// holding one of its members. Each set is enumerated once, from its member of
// highest W (its anchor), and its expectation recomputed as the walk does.

// class is one sibling class.
type class struct {
	gids    []int64  // its sources' members' groups, ascending
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

// groupItems returns the items of group id: the roots, a parent's children,
// or an id the taxonomy lacks, alone.
func (in *inputs) groupItems(id int64) []item.Item {
	switch {
	case id == rootGroup:
		return in.tax.Roots()
	case id >= offGroup:
		return []item.Item{item.Item(id - offGroup)}
	}
	return in.tax.Children(item.Item(id))
}

func (in *inputs) groupOf(x item.Item) int64 {
	if int(x) >= in.tax.Size() {
		return offGroup + int64(x)
	}
	return int64(in.tax.Parent(x))
}

// weight returns w(l), +Inf if a member's support is not positive, and
// whether l is regular: its support and its members' are positive and none has
// declared substitutes, so that each is a sibling of exactly the others of its
// group (of which only the large ones are ever chosen). Masks hold 64 members.
func (in *inputs) weight(l item.Itemset, supL float64) (float64, bool) {
	prod, regular := 1.0, supL > 0 && len(l) <= 64
	for _, x := range l {
		s, ok := in.support(x)
		if !ok || s <= 0 {
			return math.Inf(1), false
		}
		prod *= s
		regular = regular && x >= 0 && len(in.subs[x]) == 0
	}
	return supL / prod, regular
}

// classify indexes the sources, marks the regular ones and builds their
// classes, one allocation per table, each sized by a counting pass. A source
// finds its class by the hash of its groups, so what is sorted is the
// distinct classes and the sources by class, and a class's anchors take their
// sources in order from a counting sort of its members by item.
func (in *inputs) classify() {
	n, members := len(in.sources), 0
	for _, l := range in.sources {
		members += len(l)
	}
	in.regular = make([]bool, n)
	in.byHash, in.walked = item.NewIndex(n), map[uint64][]weighted{}
	type regularSource struct {
		src, cls int32 // cls numbers the classes in the order first met
		w        float64
	}
	reg := make([]regularSource, 0, n)
	gids := make([]int64, 0, members)
	// srcGids[s] is regular source s's members' groups, ascending: its class's
	// key. byGids indexes each class's first entry in reg by the hash of its
	// key, and firsts holds that entry's source.
	srcGids, byGids := make([][]int64, n), item.NewIndex(n)
	var firsts []int32
	for s, l := range in.sources {
		in.byHash.Insert(l.Hash(), int32(s))
		w, ok := in.weight(l, in.sourceSup[s])
		if !ok {
			if k := in.kinHash(l); in.sourceSup[s] > 0 {
				in.walked[k] = append(in.walked[k], weighted{src: int32(s), w: w})
			}
			for _, x := range l {
				if _, ok := in.siblings[x]; ok {
					continue
				}
				sibs := in.tax.Siblings(x) // a fresh slice
				for _, y := range in.subs[x] {
					if y != x && !slices.Contains(sibs, y) {
						sibs = append(sibs, y)
					}
				}
				in.siblings[x] = sibs
			}
			continue
		}
		in.regular[s] = true
		start := len(gids)
		for _, x := range l {
			gids = append(gids, in.groupOf(x))
			in.idBound = max(in.idBound, int(x)+1)
		}
		g := gids[start:len(gids):len(gids)]
		slices.Sort(g)
		srcGids[s] = g
		hg := uint64(0)
		for _, id := range g {
			hg += item.Mix(uint64(id))
		}
		r := regularSource{src: int32(s), cls: -1, w: w}
		for e, at := byGids.Probe(hg); e >= 0; e, at = byGids.Next(hg, at) {
			if first := reg[e]; slices.Equal(srcGids[first.src], g) {
				r.cls = first.cls
				break
			}
		}
		if r.cls < 0 {
			byGids.Insert(hg, int32(len(reg)))
			r.cls = int32(len(firsts))
			firsts = append(firsts, int32(s))
		}
		reg = append(reg, r)
	}
	in.idBound = max(in.idBound, in.tax.Size())
	for _, b := range in.walked {
		slices.SortFunc(b, func(a, b weighted) int { return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.src, b.src)) })
	}
	// The classes ascending by their groups (rank), then the sources by
	// class, w descending and source: a class is a run.
	order := make([]int32, len(firsts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(srcGids[firsts[a]], srcGids[firsts[b]]) })
	rank := make([]int32, len(firsts))
	for r, c := range order {
		rank[c] = int32(r)
	}
	slices.SortFunc(reg, func(a, b regularSource) int {
		return cmp.Or(cmp.Compare(rank[a.cls], rank[b.cls]), cmp.Compare(b.w, a.w), cmp.Compare(a.src, b.src))
	})

	// A pass over the class runs sizes the tables below exactly: a group per
	// distinct group of a class, with its pool's members, and an anchor per
	// distinct member of the class's sources (held[x] == cls + 1 marks one).
	held := make([]int32, in.idBound)
	nGroups, nPool, nAnchors := 0, 0, 0
	for i, r := range reg {
		if cg := srcGids[r.src]; i == 0 || r.cls != reg[i-1].cls {
			for g, id := range cg {
				if g == 0 || id != cg[g-1] {
					nGroups++
					for _, x := range in.groupItems(id) {
						if s, ok := in.support(x); ok && s > 0 { // as pool tells
							nPool++
						}
					}
				}
			}
		}
		for _, x := range in.sources[r.src] {
			if held[x] != r.cls+1 {
				held[x], nAnchors = r.cls+1, nAnchors+1
			}
		}
	}
	clear(held)

	in.pools = make([]item.Item, 0, nPool)
	in.groups = make([]group, 0, nGroups)
	entries := make([]weighted, len(gids)) // one per member of a regular source
	in.anchors = make([]anchor, 0, nAnchors)
	// held[x] counts x's entries in the class being built, then is where the
	// next of them goes; xs are those members in the order first met.
	var xs []item.Item
	for i, e0 := 0, 0; i < len(reg); {
		j := i + 1
		for j < len(reg) && reg[j].cls == reg[i].cls {
			j++
		}
		cls := reg[i:j]
		cg := srcGids[cls[0].src]
		g0 := len(in.groups)
		for _, id := range cg {
			if last := len(in.groups) - 1; last >= g0 && in.groups[last].id == id {
				in.groups[last].n++
				continue
			}
			in.groups = append(in.groups, group{id: id, pool: in.pool(id), n: 1})
		}
		k := class{gids: cg, groups: in.groups[g0:len(in.groups):len(in.groups)]}

		// Each member's entries, by w descending, then source, back to back.
		xs = xs[:0]
		for _, r := range cls {
			for _, x := range in.sources[r.src] {
				if held[x] == 0 {
					xs = append(xs, x)
				}
				held[x]++
			}
		}
		next := int32(e0)
		for _, x := range xs {
			next, held[x] = next+held[x], next
		}
		for _, r := range cls {
			for _, x := range in.sources[r.src] {
				entries[held[x]], held[x] = weighted{x, r.src, r.w}, held[x]+1
			}
		}
		a0, e := len(in.anchors), int32(e0)
		for _, x := range xs { // x's entries end where the next one's start
			f := held[x]
			in.anchors = append(in.anchors, anchor{x: x, cls: int32(len(in.classes)), w: entries[e].w, srcs: entries[e:f:f]})
			held[x], e = 0, f
		}
		e0 = int(next)
		k.anchors = in.anchors[a0:len(in.anchors):len(in.anchors)]
		slices.SortFunc(k.anchors, func(a, b anchor) int { return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.x, b.x)) })
		for r := range k.anchors {
			k.anchors[r].rank = int32(r)
		}
		in.classes = append(in.classes, k)
		i = j
	}
}

// pool appends to in.pools the members of group id that are large with
// positive support, by support descending, then item, and returns them.
func (in *inputs) pool(id int64) []item.Item {
	start := len(in.pools)
	for _, x := range in.groupItems(id) {
		if s, ok := in.support(x); ok && s > 0 {
			in.pools = append(in.pools, x)
		}
	}
	pool := in.pools[start:len(in.pools):len(in.pools)]
	slices.SortFunc(pool, func(a, b item.Item) int { return cmp.Or(cmp.Compare(in.sup[b], in.sup[a]), cmp.Compare(a, b)) })
	return pool
}

// generator records candidate negative itemsets across the tasks one worker
// runs. A set reached by several paths takes the largest expected support
// (paper §2.1.1), and every path's expectation is arithmetic over the
// support table, so a set is recorded by the one path that wins it, in
// whatever task or worker runs that. A task allocates nothing but the growth
// of its records.
type generator struct {
	inputs

	// recs are the recorded paths, and items their sets back to back.
	recs  []prov
	items []item.Item
	stats WalkStats

	// The walk in progress, and scratch every walk reuses.
	l       item.Itemset
	src     int32 // l is sources[src]
	start   int   // the first of items the walk recorded
	supL    float64
	via     Mode
	suffix  []float64   // suffix[pos]: the most positions pos… of l can multiply the ratio by
	keepOne []float64   // the same when one of them must keep its member
	picked  []item.Item // one choice per position of l, or the class set being enumerated
	set     []item.Item // picked, sorted

	// The class enumeration in progress: its anchor and class, W(x)·sup(x) of
	// the anchor x, rest[j], the most groups j… can multiply it by, and the
	// anchors ranked above x, those y with mark[y] == epoch.
	anc    *anchor
	cls    *class
	base   float64
	rest   []float64
	mark   []int32
	epoch  int32
	xs, ys []member    // a source and a set, for pathRatio
	lifted []item.Item // the source of a children path, for wins
	gids   []int64     // a set's groups, for classOf
}

// prov is a generation path to a candidate: its expectation, source (an
// index into inputs.sources) and mode.
type prov struct {
	expected float64
	source   int32
	via      Mode
}

// outranks reports whether path p wins over path q to one set: a larger
// expectation, then a lower source, then children over siblings — of equal
// paths, the first in the reference's order (sources ascending, each through
// its children before its siblings).
func (p prov) outranks(q prov) bool {
	return p.expected > q.expected || p.expected == q.expected && (p.source < q.source || p.source == q.source && p.via < q.via)
}

// levelSupports is the dense view of the large 1-itemsets l1, with their
// counts over total transactions as a stage-1 result holds them beside its
// table: the relative support of {x}, or -1 when {x} is not large, read by id
// at every choice of a walk. It covers [0, n) and every id of l1, the ones a
// taxonomy of n nodes lacks included, so an id past its end is not large.
func levelSupports(l1 []item.CountedSet, total, n int) []float64 {
	for _, cs := range l1 {
		n = max(n, int(cs.Set[0])+1)
	}
	sup := make([]float64, n)
	for x := range sup {
		sup[x] = -1
	}
	for _, cs := range l1 {
		x := cs.Set[0]
		sup[x] = 0
		if total != 0 {
			sup[x] = float64(cs.Count) / float64(total)
		}
	}
	return sup
}

// newGenerator returns a generator for one worker.
func (in *inputs) newGenerator() *generator {
	return &generator{inputs: *in, mark: make([]int32, in.idBound)}
}

// support returns the relative support of the single item x, or -1, and
// whether x is large.
func (in *inputs) support(x item.Item) (float64, bool) {
	if x < 0 || int(x) >= len(in.sup) {
		return -1, false
	}
	return in.sup[x], in.sup[x] >= 0
}

// choices lists what may replace x in the mode being walked.
func (g *generator) choices(x item.Item) []item.Item {
	if g.via == ViaSiblings {
		return g.siblings[x]
	}
	return g.tax.Children(x)
}

// maxGrowth is the most the position holding x can multiply the ratio by in
// the mode being walked: 1 for keeping x, or the largest sup(r)/sup(x) over its
// large choices — above 1 for a sibling more popular than x, never for a child
// where the supports were counted.
func (g *generator) maxGrowth(x item.Item) float64 {
	m := 1.0
	if supX, ok := g.support(x); ok && supX > 0 {
		for _, r := range g.choices(x) {
			if supR, ok := g.support(r); ok {
				m = max(m, supR/supX)
			}
		}
	}
	return m
}

// fromLarge generates the candidates derivable from the large itemset l:
// Cases 1–2 replace a non-empty subset of its members by children, Case 3 a
// proper one by siblings or declared substitutes (the §4.1 extension). The
// expected support is sup(l) scaled by Π sup(replacement)/sup(original) over
// the replaced members — the uniformity assumption. Case 3 of a regular
// source is its class's, done by fromAnchor.
func (g *generator) fromLarge(src int32) {
	l, supL := g.sources[src], g.sourceSup[src]
	if supL == 0 {
		return
	}
	g.l, g.src, g.supL, g.start = l, src, supL, len(g.items)
	g.stats.Sources++
	g.scratch(len(l))
	for via := ViaChildren; via == ViaChildren || via == ViaSiblings && !g.regular[src]; via++ {
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
	if g.place(pos, x) {
		g.walk(pos+1, kept+1, replaced, ratio)
	}
	// A branch is cut when the most the later positions can lift it to is
	// below the floor (a more popular sibling can lift the running product).
	most := g.supL * g.suffix[pos+1]
	if g.via == ViaSiblings && kept == 0 {
		// Case 3 keeps a member: the last one, or one of the later ones.
		if pos == len(g.l)-1 {
			return
		}
		most = g.supL * g.keepOne[pos+1]
	}
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

// place puts y at position pos of the set being assembled, unless it equals
// an earlier pick or is an ancestor or descendant of one: such a set is no
// candidate (a member paired with its own ancestor has degenerate support).
func (g *generator) place(pos int, y item.Item) bool {
	for _, p := range g.picked[:pos] {
		if p == y || g.tax.IsAncestor(p, y) || g.tax.IsAncestor(y, p) {
			return false
		}
	}
	g.picked[pos] = y
	return true
}

// emit records the set the walk completed if it is not large and the walk's
// path wins it: the first, if a sibling walk reaches it by several.
func (g *generator) emit(expected float64) {
	if g.probe(g.picked[:len(g.l)], g.via) {
		return
	}
	p := prov{expected, g.src, g.via}
	if g.wins(g.set, g.members(g.set), p) && (g.via == ViaChildren || !g.recorded()) {
		g.record(p)
		return
	}
	g.stats.Duplicates++
}

// recorded reports whether the walk in progress recorded g.set already.
func (g *generator) recorded() bool {
	for off := g.start; off < len(g.items); off += len(g.set) {
		if slices.Equal(g.items[off:off+len(g.set)], g.set) {
			return true
		}
	}
	return false
}

// probe counts one emission: it normalizes picked into g.set and reports
// whether that is a large itemset.
func (g *generator) probe(picked []item.Item, via Mode) bool {
	g.set = append(g.set[:0], picked...)
	slices.Sort(g.set)
	g.stats.Emitted++
	if via == ViaSiblings {
		g.stats.Case3++
	}
	if g.find(g.set) >= 0 {
		g.stats.AlreadyLarge++ // already found large: not a negative candidate
		return true
	}
	return false
}

// record keeps path p to the set probe just normalized.
func (g *generator) record(p prov) {
	g.items = append(grow(g.items, len(g.set)), g.set...)
	g.recs = append(grow(g.recs, 1), p)
	g.stats.Recorded++
}

// grow makes room for n more elements in s, doubling it when it is full where
// append would grow a long slice by a quarter, so that a worker's records are
// copied a few times, not a dozen.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) < n {
		return slices.Grow(s, max(len(s), n))
	}
	return s
}

// fromAnchor enumerates the sets of a's class whose top anchor is a: a's group
// gives a and n−1 more members, every other group n, none ranked above a, in
// pool order — support descending, so that a pick cut at the floor ends it.
func (g *generator) fromAnchor(a *anchor) {
	c := &g.classes[a.cls]
	g.epoch++
	for _, b := range c.anchors[:a.rank] {
		g.mark[b.x] = g.epoch
	}
	g.scratch(len(c.gids))
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
	if g.cls.groups[j].id == g.groupOf(g.anc.x) {
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

// complete emits the class set in g.picked[:k] unless its exact expectation
// falls to the floor, and records it with its class's best path if that wins
// it.
func (g *generator) complete(k int, prod float64) {
	ys, p := g.members(g.picked[:k]), prov{}
	near := g.base*prod <= g.minExpected*(1+floorSlack) // else the exact one clears the floor
	if near {
		if p = g.exact(g.cls, int(g.anc.rank), ys); !(p.expected > g.minExpected) {
			g.stats.FloorCuts++
			return
		}
	}
	if g.probe(g.picked[:k], ViaSiblings) {
		return
	}
	if !near {
		p = g.exact(g.cls, int(g.anc.rank), ys)
	}
	if g.wins(g.set, ys, p) {
		g.record(p)
		return
	}
	g.stats.Duplicates++
}

// wins reports whether no path beats p, the path an emitter took to set (not
// large; ys as pathRatio reads it), of its class's path (unless p is it),
// irregular sources' sibling walks and children paths.
func (g *generator) wins(set []item.Item, ys []member, p prov) bool {
	if p.via == ViaChildren || !g.regular[p.source] {
		// The class path's expectation is its estimate to within the slack.
		if c, r, est := g.classOf(ys); est > p.expected*(1+floorSlack) || est >= p.expected*(1-floorSlack) && g.exact(c, r, ys).outranks(p) {
			return false
		}
	}
	if len(g.walked) > 0 {
		// A path's expectation is w·Π sup(c) to within the slack, unless a
		// member's support is not positive.
		prod := 1.0
		for _, y := range ys {
			prod *= max(y.sup, 0)
		}
		for _, e := range g.walked[g.kinHash(set)] {
			if prod > 0 && e.w*prod < p.expected*(1-floorSlack) {
				break
			}
			if l := g.sources[e.src]; len(l) == len(set) && (prov{g.sourceSup[e.src] * pathRatio(g.sourceMembers(l, ys, true), ys, 0, false, false, 1), e.src, ViaSiblings}).outranks(p) {
				return false
			}
		}
	}
	// A children path's source is set with a non-empty subset of its members
	// put back to their parents (their groups), each member large and its
	// parent of positive support.
	var up uint64
	for i, y := range ys {
		if y.sup >= 0 && y.group >= 0 && y.group < offGroup {
			if s, ok := g.support(item.Item(y.group)); ok && s > 0 {
				up |= 1 << i
			}
		}
	}
	for m := up; m != 0; m = (m - 1) & up {
		g.lifted = g.lifted[:0]
		for i, y := range ys {
			if m&(1<<i) != 0 {
				y.x = item.Item(y.group)
			}
			g.lifted = append(g.lifted, y.x)
		}
		slices.Sort(g.lifted)
		s := g.find(g.lifted)
		if s < 0 {
			continue
		}
		ratio := 1.0 // multiplied position by position, as walk does
		for _, x := range g.lifted {
			for i, y := range ys {
				if m&(1<<i) != 0 && item.Item(y.group) == x {
					supX, _ := g.support(x)
					ratio = ratio * y.sup / supX
				}
			}
		}
		if (prov{g.sourceSup[s] * ratio, s, ViaChildren}).outranks(p) {
			return false
		}
	}
	return true
}

// classOf returns set's class, the rank there of set's top anchor, and the
// class path's estimate, that anchor's W times the set's supports, or -Inf if
// no class path reaches set (no class, a member of no positive support).
func (g *generator) classOf(set []member) (*class, int, float64) {
	g.gids = g.gids[:0]
	est := 1.0
	for _, y := range set {
		if !(y.sup > 0) {
			return nil, 0, math.Inf(-1)
		}
		g.gids, est = append(g.gids, y.group), est*y.sup
	}
	slices.Sort(g.gids)
	i := sort.Search(len(g.classes), func(i int) bool { return slices.Compare(g.classes[i].gids, g.gids) >= 0 })
	if i < len(g.classes) && slices.Equal(g.classes[i].gids, g.gids) {
		c := &g.classes[i]
		for r, a := range c.anchors {
			if slices.ContainsFunc(set, func(y member) bool { return y.x == a.x }) {
				return c, r, a.w * est
			}
		}
	}
	return nil, 0, math.Inf(-1)
}

// exact returns the best path to set from its class c, whose top anchor in
// set is ranked from: every source whose estimate is within the slack of that
// anchor's is recomputed as the walk multiplies it, and the best one wins.
func (g *generator) exact(c *class, from int, set []member) prov {
	best := prov{math.Inf(-1), math.MaxInt32, ViaSiblings}
	band := c.anchors[from].w * (1 - floorSlack)
	for _, b := range c.anchors[from:] {
		if b.w < band {
			break
		}
		if !slices.ContainsFunc(set, func(y member) bool { return y.x == b.x }) {
			continue
		}
		for _, s := range b.srcs {
			if s.w < band {
				break
			}
			if p := (prov{g.sourceSup[s.src] * pathRatio(g.sourceMembers(g.sources[s.src], set, false), set, 0, false, false, 1), s.src, ViaSiblings}); p.outranks(best) {
				best = p
			}
		}
	}
	return best
}

// member is an item of a source or a set as pathRatio reads it. For a source
// member, can marks the members of the set that may replace it.
type member struct {
	x     item.Item
	group int64
	sup   float64 // -1: x is not large
	can   uint64
}

func (g *generator) member(x item.Item) member {
	s, _ := g.support(x)
	return member{x: x, group: g.groupOf(x), sup: s}
}

// members returns set as pathRatio reads it, in g.ys.
func (g *generator) members(set []item.Item) []member {
	for j, y := range set {
		g.ys[j] = g.member(y)
	}
	return g.ys[:len(set)]
}

// sourceMembers returns the source l as pathRatio reads it against set: what
// may replace a member is the others of its group for a class source, its
// large sibling choices for an irregular one, if its support is positive.
func (g *generator) sourceMembers(l item.Itemset, set []member, walked bool) []member {
	for i, x := range l {
		g.xs[i] = g.member(x)
		for j, y := range set {
			if !walked && y.group == g.xs[i].group || walked && g.xs[i].sup > 0 && y.sup >= 0 && slices.Contains(g.siblings[x], y.x) {
				g.xs[i].can |= 1 << j
			}
		}
	}
	return g.xs[:len(l)]
}

// pathRatio returns the largest ratio a Case-3 path from the source l to set
// multiplies, position by position as walk does: each position keeps its
// member or takes an unused one of set (used marks them) that may replace it,
// at least one keeps and one replaces.
func pathRatio(l, set []member, used uint64, kept, replaced bool, ratio float64) float64 {
	if len(l) == 0 {
		if kept && replaced {
			return ratio
		}
		return math.Inf(-1)
	}
	x := &l[0]
	best := math.Inf(-1)
	for j := range set {
		switch y := &set[j]; {
		case used&(1<<j) != 0:
		case y.x == x.x:
			best = max(best, pathRatio(l[1:], set, used|1<<j, true, replaced, ratio))
		case x.can&(1<<j) != 0:
			best = max(best, pathRatio(l[1:], set, used|1<<j, kept, true, ratio*y.sup/x.sup))
		}
	}
	return best
}

// generated is what candidate generation hands on: the recorded sets sorted
// by size, then by set — one sorted run per size, as the counting pass takes
// them, and as a pass of the index looks them up among the last refresh's —
// the path that won each, and how many sets there are of each size.
type generated struct {
	sets    []item.Itemset // carved from the generators' items
	paths   []prov         // paths[i] won sets[i]
	sources []item.Itemset // what a path's source indexes
	bySize  []int          // bySize[k]: the sets of k members
	walk    WalkStats
}

// list returns the candidates sorted by set.
func (c *generated) list() []Candidate {
	out := make([]Candidate, len(c.sets))
	for i, p := range c.paths {
		out[i] = Candidate{c.sets[i], p.expected, c.sources[p.source], p.via}
	}
	slices.SortFunc(out, func(a, b Candidate) int { return a.Set.Compare(b.Set) })
	return out
}

// sorted returns what g recorded sorted by (size, set), with the sets of each
// size counted on the way; its sets are carved from g's items, which must not
// grow after. The sort is a radix sort — a record's index below its size and
// its set's first members, each as x+1 and an absent one as 0 — then of
// records sharing those by set.
func (g *generator) sorted() *generated {
	n, top := len(g.recs), item.Item(0)
	keys, offs := make([]uint64, n), make([]int32, n+1)
	var bySize []int
	for i, p := range g.recs {
		k := len(g.sources[p.source])
		offs[i+1] = offs[i] + int32(k)
		top = max(top, g.items[offs[i+1]-1])
		for len(bySize) <= k {
			bySize = append(bySize, 0)
		}
		bySize[k]++
	}
	ib, mb, sb := bits.Len(uint(n)), bits.Len(uint(top)+1), bits.Len(uint(len(bySize)))
	members := max(64-ib-sb, 0) / mb
	for i := range keys {
		keys[i] = uint64(offs[i+1] - offs[i])
		for j := offs[i]; j < offs[i]+int32(members); j++ {
			keys[i] <<= mb
			if j < offs[i+1] {
				keys[i] |= uint64(g.items[j]) + 1
			}
		}
		keys[i] = keys[i]<<ib | uint64(i)
	}
	set := func(key uint64) item.Itemset {
		i := key & (1<<ib - 1)
		return g.items[offs[i]:offs[i+1]:offs[i+1]]
	}
	for shift, tmp := 0, make([]uint64, n); shift < ib+sb+members*mb; shift += 11 {
		var at [2049]int
		for _, k := range keys {
			at[k>>shift&2047+1]++
		}
		for d := range 2048 {
			at[d+1] += at[d]
		}
		for _, k := range keys {
			tmp[at[k>>shift&2047]], at[k>>shift&2047] = k, at[k>>shift&2047]+1
		}
		keys, tmp = tmp, keys
	}
	for i, j := 0, 0; i < n; i = j {
		for j = i + 1; j < n && keys[j]>>ib == keys[i]>>ib; j++ {
		}
		if j > i+1 {
			slices.SortFunc(keys[i:j], func(a, b uint64) int { return set(a).Compare(set(b)) })
		}
	}
	c := &generated{sets: make([]item.Itemset, n), paths: make([]prov, n), sources: g.sources, bySize: bySize, walk: g.stats}
	for i, key := range keys {
		c.sets[i], c.paths[i] = set(key), g.recs[key&(1<<ib-1)]
	}
	return c
}

// merge merges runs, each sorted by (size, set), pairwise into one. No set is
// in two runs: a set is recorded by the one path that wins it.
func merge(runs []*generated) *generated {
	for len(runs) > 1 {
		next := make([]*generated, 0, (len(runs)+1)/2)
		for i := 0; i+1 < len(runs); i += 2 {
			next = append(next, mergeTwo(runs[i], runs[i+1]))
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	return runs[0]
}

func mergeTwo(a, b *generated) *generated {
	n := len(a.sets) + len(b.sets)
	c := &generated{sets: make([]item.Itemset, 0, n), paths: make([]prov, 0, n), sources: a.sources, walk: a.walk}
	c.walk.add(b.walk)
	c.bySize = make([]int, max(len(a.bySize), len(b.bySize)))
	for k := range c.bySize {
		if k < len(a.bySize) {
			c.bySize[k] += a.bySize[k]
		}
		if k < len(b.bySize) {
			c.bySize[k] += b.bySize[k]
		}
	}
	i, j := 0, 0
	for i < len(a.sets) && j < len(b.sets) {
		if x, y := a.sets[i], b.sets[j]; len(x) < len(y) || len(x) == len(y) && x.Compare(y) < 0 {
			c.sets, c.paths = append(c.sets, x), append(c.paths, a.paths[i])
			i++
		} else {
			c.sets, c.paths = append(c.sets, y), append(c.paths, b.paths[j])
			j++
		}
	}
	c.sets, c.paths = append(append(c.sets, a.sets[i:]...), b.sets[j:]...), append(append(c.paths, a.paths[i:]...), b.paths[j:]...)
	return c
}

// GenerateCandidates produces the candidate negative itemsets derivable from
// every large itemset of size ≥ 2 in levels, using tax for children/sibling
// lookups, sorted by itemset. The 1-item supports are read off levels[0],
// with counts relative to table.Total(). It is exported for tests, benchmarks
// and the candidate-count experiment (Figure 7); the mining drivers run the
// same generator, and take its sets by size.
func GenerateCandidates(levels [][]item.CountedSet, table *item.Table, tax *taxonomy.Taxonomy, minSup, minRI float64, substitutes []item.Itemset) []Candidate {
	var l1 []item.CountedSet
	if len(levels) > 0 {
		l1 = levels[0]
	}
	return generateCandidates(levels, table.Total(), tax, levelSupports(l1, table.Total(), tax.Size()),
		Options{MinSupport: minSup, MinRI: minRI, Substitutes: substitutes}).list()
}

// generateCandidates is GenerateCandidates for a caller that holds sup =
// levelSupports(levels[0], total, tax.Size()), on opt.Count.Parallelism
// workers (at least one, the caller's goroutine), each taking tasks one at a
// time from a shared counter into a generator of its own and sorting what it
// recorded, the sorted runs merged at the end: the candidates do not depend on
// the number of workers.
func generateCandidates(levels [][]item.CountedSet, total int, tax *taxonomy.Taxonomy, sup []float64, opt Options) *generated {
	in := newInputs(levels, total, tax, sup, opt)
	tasks := int64(len(in.sources) + len(in.anchors))
	runs := make([]*generated, max(1, min(int64(opt.Count.Parallelism), tasks)))
	var next atomic.Int64
	run := func(w int) {
		g := in.newGenerator()
		for i := next.Add(1) - 1; i < tasks; i = next.Add(1) - 1 {
			g.run(int(i))
		}
		runs[w] = g.sorted()
	}
	var wg sync.WaitGroup
	for w := 1; w < len(runs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return merge(runs)
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
// taxonomy fanout f — children replacements over every non-empty subset,
// plus sibling replacements of single members:
//
//	Σ_{i=1..k} C(k, i)·f^i + k·(f − 1) = (1 + f)^k − 1 + k·(f − 1)
func EstimateCandidates(k int, f float64) float64 {
	return math.Pow(1+f, float64(k)) - 1 + float64(k)*(f-1)
}

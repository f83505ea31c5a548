package item

import (
	"fmt"
	"math/bits"
	"slices"
)

// CountedSet pairs an itemset with its support count.
type CountedSet struct {
	Set   Itemset
	Count int
}

// Table is the itemset → support-count lookup over the levels of a mining
// pass: level k holds distinct k-itemsets, and each level has an Index of its
// positions by Hash, so a probe hashes the set, walks the one level of its
// size and compares members in place. It allocates nothing per set or probe.
type Table struct {
	levels [][]CountedSet
	index  []Index // index[k-1] holds the positions of levels[k-1]
	total  int     // number of transactions the counts are relative to
}

// NewTable returns an empty table over n transactions.
func NewTable(n int) *Table { return &Table{total: n} }

// Append adds the next level: the (k+1)-itemsets of a table holding k levels.
// The table reads level in place; it must not change after.
func (t *Table) Append(level []CountedSet) {
	ix := NewIndex(len(level))
	for i, cs := range level {
		ix.Insert(cs.Set.Hash(), int32(i))
	}
	t.levels, t.index = append(t.levels, level), append(t.index, ix)
}

// Count returns the absolute support count of s and whether it is known.
func (t *Table) Count(s Itemset) (int, bool) {
	if len(s) > 64 {
		return 0, false
	}
	c := t.count(s, 1<<len(s)-1, s.Hash())
	return max(c, 0), c >= 0
}

// count returns the count of the members of s that mask picks, whose Hash is
// h, or -1 if t holds none: it probes the level of their size and compares
// them in place.
func (t *Table) count(s Itemset, mask, h uint64) int {
	k := bits.OnesCount64(mask) - 1
	if k < 0 || k >= len(t.levels) {
		return -1
	}
	lvl, ix := t.levels[k], t.index[k]
probe:
	for i, at := ix.Probe(h); i >= 0; i, at = ix.Next(h, at) {
		m := mask
		for _, x := range lvl[i].Set {
			if x != s[bits.TrailingZeros64(m)] {
				continue probe
			}
			m &= m - 1
		}
		return lvl[i].Count
	}
	return -1
}

// Support returns the relative support of s in [0,1] and whether it is known.
func (t *Table) Support(s Itemset) (float64, bool) {
	n, ok := t.Count(s)
	if !ok || t.total == 0 {
		return 0, ok
	}
	return float64(n) / float64(t.total), true
}

// Contains reports whether s has a recorded support.
func (t *Table) Contains(s Itemset) bool {
	_, ok := t.Count(s)
	return ok
}

// Total returns the number of transactions counts are relative to.
func (t *Table) Total() int { return t.total }

// Consequents is ap-genrules' consequent walk (Agrawal & Srikant, VLDB 1994),
// which both the positive and the negative rule generator run: a rule of an
// itemset s splits it into an antecedent and a consequent, both non-empty,
// and the consequents are tried level by level as masks over s's positions
// (bit i is s[i]). Every 1-mask is offered; a j-mask is offered only when all
// of its (j−1)-sub-masks were kept. That is apriori-gen's join and prune over
// the kept level, so when keeping is anti-monotone no consequent that could
// pass is skipped. Its zero value is ready, and a walk reuses the buffers of
// the one before.
type Consequents struct{ level, next []uint64 }

// Walk offers keep the proper, non-empty consequents of s, each with the
// counts t holds for it and for its antecedent — s less it — or -1 where t
// holds none; keep reports whether the consequent is kept. Nothing is built
// to probe t: a consequent's hash is the sum of Mix over its members, the
// antecedent's is s's hash less that.
//
// A mask has 64 bits, so s has at most 63 members. A large 64-itemset would
// need its 2^64 − 1 non-empty subsets mined as large first; Walk panics on
// one.
func (w *Consequents) Walk(t *Table, s Itemset, keep func(cons uint64, consCount, anteCount int) bool) {
	k := len(s)
	if k > 63 {
		panic(fmt.Sprintf("item: consequents of a %d-itemset: at most 63 members fit a mask", k))
	}
	var mix [63]uint64
	for i, x := range s {
		mix[i] = Mix(uint64(x))
	}
	h, full := s.Hash(), uint64(1)<<k-1
	try := func(cons uint64) bool {
		var hc uint64
		for m := cons; m != 0; m &= m - 1 {
			hc += mix[bits.TrailingZeros64(m)]
		}
		return keep(cons, t.count(s, cons, hc), t.count(s, full&^cons, h-hc))
	}
	w.level = w.level[:0]
	for i := 0; i < k && k > 1; i++ {
		if try(1 << i) {
			w.level = append(w.level, 1<<i)
		}
	}
	// A j-mask is its lowest member added to a kept (j−1)-mask above it, so
	// it is made once; made for the kept masks in ascending order, the next
	// level ascends too, and a sub-mask is looked up by binary search.
	for j := 2; j < k && len(w.level) > 0; j++ {
		w.next = w.next[:0]
		for _, m := range w.level {
		grow:
			for b := 0; b < bits.TrailingZeros64(m); b++ {
				c := m | 1<<b
				for rest := m; rest != 0; rest &= rest - 1 {
					if _, ok := slices.BinarySearch(w.level, c&^(rest&-rest)); !ok {
						continue grow
					}
				}
				if try(c) {
					w.next = append(w.next, c)
				}
			}
		}
		w.level, w.next = w.next, w.level
	}
}

// Slab carves itemsets from shared chunks of items, so that many small sets
// cost one allocation a chunk. Its zero value is ready.
type Slab struct{ free []Item }

// slabChunk is the items a Slab allocates at a time, at least.
const slabChunk = 4096

// Pick returns the members of s that mask picks, carved from the slab.
func (b *Slab) Pick(s Itemset, mask uint64) Itemset {
	n := bits.OnesCount64(mask)
	if cap(b.free)-len(b.free) < n {
		b.free = make([]Item, 0, max(n, slabChunk))
	}
	at := len(b.free)
	for m := mask; m != 0; m &= m - 1 {
		b.free = append(b.free, s[bits.TrailingZeros64(m)])
	}
	return b.free[at:len(b.free):len(b.free)]
}

// SortBySides orders rules by (antecedent, consequent), the two sides that
// sides returns, which must be unique per rule. It sorts an int32
// permutation and then moves each rule once, cycle by cycle, so a sort of
// large rules copies no rule per swap. len(rules) must fit an int32.
func SortBySides[R any](rules []R, sides func(*R) (antecedent, consequent Itemset)) {
	perm := make([]int32, len(rules))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		ai, ci := sides(&rules[i])
		aj, cj := sides(&rules[j])
		if c := ai.Compare(aj); c != 0 {
			return c
		}
		return ci.Compare(cj)
	})
	// Position i takes the rule at perm[i]; a done position is marked -1.
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		first, j := rules[i], i
		for k := int(perm[j]); k != i; k = int(perm[j]) {
			rules[j], perm[j] = rules[k], -1
			j = k
		}
		rules[j], perm[j] = first, -1
	}
}

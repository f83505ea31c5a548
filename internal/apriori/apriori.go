// Package apriori implements the classic Apriori algorithm of Agrawal &
// Srikant (VLDB 1994): level-wise frequent-itemset mining with the
// apriori-gen candidate generator (join + prune), hash-tree support
// counting, and the ap-genrules positive rule generator.
//
// The paper under reproduction uses Apriori twice: its generalized miners
// (package gen) reuse Gen and the counting engine, and its negative rule
// generator (package negative) runs GenRules' consequent walk,
// item.Consequents, with its own test of each consequent.
package apriori

import (
	"fmt"
	"slices"
	"sort"

	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// MaxK caps the itemset size mined (0 = unlimited).
	MaxK int
	// Count holds pass-level options (parallelism, hash tree tuning,
	// transaction transform).
	Count count.Options
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if !(o.MinSupport > 0 && o.MinSupport <= 1) {
		return fmt.Errorf("apriori: MinSupport = %v, want (0, 1]", o.MinSupport)
	}
	if o.MaxK < 0 {
		return fmt.Errorf("apriori: MaxK = %d, want ≥ 0", o.MaxK)
	}
	return nil
}

// Result is the outcome of a frequent-itemset mining run.
type Result struct {
	// Levels[k-1] holds the large k-itemsets with their absolute support
	// counts, each level sorted lexicographically.
	Levels [][]item.CountedSet
	// Table maps every large itemset to its absolute support count: an
	// index over Levels, which AddLevel extends.
	Table *item.Table
	// N is the number of transactions scanned.
	N int
	// MinCount is the absolute support threshold used (ceil of
	// MinSupport·N, but at least 1).
	MinCount int
}

// AddLevel appends the next level, sorted, to Levels and indexes it in Table.
func (r *Result) AddLevel(level []item.CountedSet) {
	r.Levels = append(r.Levels, level)
	r.Table.Append(level)
}

// Large returns all large itemsets of every size, level by level.
func (r *Result) Large() []item.CountedSet {
	var out []item.CountedSet
	for _, lvl := range r.Levels {
		out = append(out, lvl...)
	}
	return out
}

// LevelSets returns just the itemsets of level k (1-based), nil if none.
func (r *Result) LevelSets(k int) []item.Itemset {
	if k < 1 || k > len(r.Levels) {
		return nil
	}
	out := make([]item.Itemset, len(r.Levels[k-1]))
	for i, cs := range r.Levels[k-1] {
		out[i] = cs.Set
	}
	return out
}

// MinCount converts a relative support into the absolute transaction count
// threshold used throughout the library: ceil(minSup·n), at least 1.
func MinCount(minSup float64, n int) int {
	mc := int(minSup * float64(n))
	if float64(mc) < minSup*float64(n) {
		mc++
	}
	if mc < 1 {
		mc = 1
	}
	return mc
}

// Mine runs level-wise Apriori over db.
func Mine(db txdb.DB, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := db.Count()
	res := &Result{Table: item.NewTable(n), N: n, MinCount: MinCount(opt.MinSupport, n)}

	// Pass 1: singletons.
	singles, err := count.Singletons(db, opt.Count)
	if err != nil {
		return nil, err
	}
	l1 := Level1(singles, res.MinCount)
	if len(l1) == 0 {
		return res, nil
	}
	res.AddLevel(l1)

	// Passes k ≥ 2.
	for k := 2; opt.MaxK == 0 || k <= opt.MaxK; k++ {
		cands := Gen(res.LevelSets(k - 1))
		if len(cands) == 0 {
			break
		}
		counts, err := count.Candidates(db, cands, opt.Count)
		if err != nil {
			return nil, err
		}
		var level []item.CountedSet
		for i, c := range cands {
			if counts[i] >= res.MinCount {
				level = append(level, item.CountedSet{Set: c, Count: counts[i]})
			}
		}
		if len(level) == 0 {
			break
		}
		sort.Slice(level, func(i, j int) bool { return level[i].Set.Compare(level[j].Set) < 0 })
		res.AddLevel(level)
	}
	return res, nil
}

// Level1 is the large 1-itemsets of counts — item x's support is counts[x],
// as count.Singletons returns them: every item counted at least minCount
// (≥ 1) times, in id order, which is itemset order. The sets are carved from
// one slab.
func Level1(counts []int, minCount int) []item.CountedSet {
	n := 0
	for _, c := range counts {
		if c >= minCount {
			n++
		}
	}
	slab := make([]item.Item, 0, n)
	l1 := make([]item.CountedSet, 0, n)
	for x, c := range counts {
		if c >= minCount {
			slab = append(slab, item.Item(x))
			l1 = append(l1, item.CountedSet{Set: slab[len(slab)-1 : len(slab) : len(slab)], Count: c})
		}
	}
	return l1
}

// Gen is apriori-gen: given the sorted large (k-1)-itemsets, it returns the
// candidate k-itemsets — the join of pairs sharing a (k-2)-prefix, pruned of
// candidates with any small (k-1)-subset.
func Gen(prev []item.Itemset) []item.Itemset {
	if len(prev) == 0 {
		return nil
	}
	if prev[0].Len() == 1 {
		return genPairs(prev)
	}
	return joinPrune(prev)
}

// joinPrune is apriori-gen as published, for any k, on item ids: prev's
// sets are indexed by item.Itemset.Hash, and a candidate — the join of
// prev[i] and prev[j], which share their first k-2 members — is kept when its
// k-2 subsets other than those two parents are in prev, each probed by the
// candidate's hash less its dropped member's and compared in place. A first
// pass marks the survivors among the joined pairs in a bitset, so that the
// second carves exactly them from one slab, in join order: sorted, as prev
// is.
func joinPrune(prev []item.Itemset) []item.Itemset {
	k1 := prev[0].Len() // k-1
	ix := item.NewIndex(len(prev))
	joined, lo := 0, 0 // the pairs the join makes; prev[lo] starts prev[i]'s run
	for i, p := range prev {
		ix.Insert(p.Hash(), int32(i))
		if i > 0 && !samePrefix(prev[lo], p, k1-1) {
			lo = i
		}
		joined += i - lo
	}
	// has reports whether prev holds base with its member at drop taken out
	// and last appended, its hash h.
	has := func(base item.Itemset, drop int, last item.Item, h uint64) bool {
		for i, at := ix.Probe(h); i >= 0; i, at = ix.Next(h, at) {
			if q := prev[i]; slices.Equal(q[:drop], base[:drop]) && slices.Equal(q[drop:k1-1], base[drop+1:]) && q[k1-1] == last {
				return true
			}
		}
		return false
	}
	kept := make([]uint64, (joined+63)/64)
	n, pair, bi, hb := 0, 0, -1, uint64(0) // hb is prev[bi]'s hash
	forPairs(prev, k1, func(i, j int) {
		if i != bi {
			bi, hb = i, prev[i].Hash()
		}
		base, last := prev[i], prev[j][k1-1]
		h := hb + item.Mix(uint64(last))
		for drop := 0; drop < k1-1; drop++ {
			if !has(base, drop, last, h-item.Mix(uint64(base[drop]))) {
				pair++
				return
			}
		}
		kept[pair>>6] |= 1 << (pair & 63)
		n++
		pair++
	})
	if n == 0 {
		return nil
	}
	slab := make([]item.Item, 0, n*(k1+1))
	out := make([]item.Itemset, 0, n)
	pair = 0
	forPairs(prev, k1, func(i, j int) {
		if kept[pair>>6]&(1<<(pair&63)) != 0 {
			slab = append(append(slab, prev[i]...), prev[j][k1-1])
			out = append(out, slab[len(slab)-k1-1:len(slab):len(slab)])
		}
		pair++
	})
	return out
}

// forPairs calls fn for every pair i < j of prev's sets that share their
// first k1-1 members — the join — in order.
func forPairs(prev []item.Itemset, k1 int, fn func(i, j int)) {
	for lo := 0; lo < len(prev); {
		hi := lo + 1
		for hi < len(prev) && samePrefix(prev[lo], prev[hi], k1-1) {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				fn(i, j)
			}
		}
		lo = hi
	}
}

// genPairs is Gen at k = 2: every pair of large 1-itemsets joins (the shared
// prefix is empty) and nothing is pruned — both 1-subsets of a pair are large
// by construction — so the pairs are carved from one slab.
func genPairs(prev []item.Itemset) []item.Itemset {
	n := len(prev) * (len(prev) - 1) / 2
	slab := make([]item.Item, 0, 2*n)
	out := make([]item.Itemset, 0, n)
	for i, a := range prev {
		for _, b := range prev[i+1:] {
			slab = append(slab, a[0], b[0])
			out = append(out, slab[len(slab)-2:len(slab):len(slab)])
		}
	}
	return out
}

func samePrefix(a, b item.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package apriori

import (
	"sort"

	"negmine/internal/count"
	"negmine/internal/hashtree"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// DHPOptions extends Options with the hash-pruning table size.
type DHPOptions struct {
	Options
	// Buckets is the size of the per-level hash table used to prune
	// candidates (default 1<<16). Larger tables prune more precisely at
	// the cost of memory.
	Buckets int
}

// MineDHP implements the candidate-pruning core of the DHP algorithm of
// Park, Chen & Yu ("An Effective Hash Based Algorithm for Mining
// Association Rules", SIGMOD 1995) — citation [8] of the reproduced paper.
//
// While counting level k, every (k+1)-subset of each transaction is hashed
// into a bucket counter; a level-(k+1) candidate can only be frequent if
// its bucket total reaches the support threshold, so apriori-gen's output
// is filtered through the table before any counting. On skewed data this
// eliminates most of C2, the dominant cost of classic Apriori.
//
// The original also progressively trims transactions; this implementation
// keeps the hash-pruning contribution and the cheap size-based skip
// (transactions shorter than k cannot support a k-candidate), which
// preserves exactness. MineDHP returns the same Result as Mine.
func MineDHP(db txdb.DB, opt DHPOptions) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	buckets := opt.Buckets
	if buckets <= 0 {
		buckets = 1 << 16
	}
	n := db.Count()
	res := &Result{Table: item.NewSupportTable(n), N: n, MinCount: MinCount(opt.MinSupport, n)}

	var buf []item.Item // transform scratch; scans are sequential
	transform := func(s item.Itemset) item.Itemset {
		s, buf = opt.Count.Apply(buf, s)
		return s
	}

	// Pass 1: singleton counts + hash table over 2-subsets.
	singles, err := count.Singletons(db, opt.Count)
	if err != nil {
		return nil, err
	}
	var l1 []item.CountedSet
	singles.Each(func(s item.Itemset, c int) {
		if c >= res.MinCount {
			l1 = append(l1, item.CountedSet{Set: s, Count: c})
		}
	})
	if len(l1) == 0 {
		return res, nil
	}
	sort.Slice(l1, func(i, j int) bool { return l1[i].Set.Compare(l1[j].Set) < 0 })
	res.Levels = append(res.Levels, l1)
	prev := make([]item.Itemset, len(l1))
	for i, cs := range l1 {
		res.Table.Put(cs.Set, cs.Count)
		prev[i] = cs.Set
	}

	table := make([]int32, buckets)
	if err := db.Scan(func(tx txdb.Transaction) error {
		hashSubsets(transform(tx.Items), 2, table)
		return nil
	}); err != nil {
		return nil, err
	}

	for k := 2; opt.MaxK == 0 || k <= opt.MaxK; k++ {
		cands := Gen(prev)
		if len(cands) == 0 {
			break
		}
		// DHP prune: keep only candidates whose bucket could be frequent.
		kept := cands[:0]
		for _, c := range cands {
			if int(table[bucketOf(c, buckets)]) >= res.MinCount {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			break
		}
		tree, err := hashtree.Build(kept, opt.Count.MaxLeaf)
		if err != nil {
			return nil, err
		}
		counter := tree.NewCounter()
		next := make([]int32, buckets)
		if err := db.Scan(func(tx txdb.Transaction) error {
			s := transform(tx.Items)
			if s.Len() < k {
				return nil // size prune: cannot support any k-candidate
			}
			counter.Add(s)
			hashSubsets(s, k+1, next)
			return nil
		}); err != nil {
			return nil, err
		}
		table = next

		var level []item.CountedSet
		for i, c := range kept {
			if counter.Count(i) >= res.MinCount {
				level = append(level, item.CountedSet{Set: c, Count: counter.Count(i)})
			}
		}
		if len(level) == 0 {
			break
		}
		sort.Slice(level, func(i, j int) bool { return level[i].Set.Compare(level[j].Set) < 0 })
		res.Levels = append(res.Levels, level)
		prev = prev[:0]
		for _, cs := range level {
			res.Table.Put(cs.Set, cs.Count)
			prev = append(prev, cs.Set)
		}
	}
	return res, nil
}

// hashSubsets adds every k-subset of s into the bucket table.
func hashSubsets(s item.Itemset, k int, table []int32) {
	if s.Len() < k {
		return
	}
	s.Subsets(k, func(sub item.Itemset) {
		table[bucketOf(sub, len(table))]++
	})
}

// bucketOf hashes an itemset into [0, buckets) with an FNV-style mix.
func bucketOf(s item.Itemset, buckets int) int {
	h := uint64(1469598103934665603)
	for _, x := range s {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	return int(h % uint64(buckets))
}

package apriori

import (
	"sort"

	"negmine/internal/hashtree"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// HybridOptions extends Options with the AprioriHybrid switch budget.
type HybridOptions struct {
	Options
	// SwitchBudget is the maximum number of candidate-id entries (across
	// all transactions) the algorithm is willing to materialize. Once the
	// measured size of the next id-list representation fits, the remaining
	// passes run AprioriTid-style on id lists instead of rescanning the
	// data. 0 selects a default of one million entries.
	SwitchBudget int
}

// defaultSwitchBudget bounds the id-list memory at roughly 4 MB.
const defaultSwitchBudget = 1 << 20

// MineHybrid implements AprioriHybrid (Agrawal & Srikant, VLDB 1994 §2.4):
// run Apriori's hash-tree passes while the id-list representation would be
// too large, then switch to AprioriTid for the remaining levels. The switch
// pass both counts level k and materializes the per-transaction candidate
// ids, after which the database is never scanned again.
//
// MineHybrid returns exactly the same Result as Mine and MineTid.
func MineHybrid(db txdb.DB, opt HybridOptions) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	budget := opt.SwitchBudget
	if budget <= 0 {
		budget = defaultSwitchBudget
	}
	n := db.Count()
	res := &Result{Table: item.NewSupportTable(n), N: n, MinCount: MinCount(opt.MinSupport, n)}

	singles, err := singletonLevel(db, opt.Options, res)
	if err != nil || singles == nil {
		return res, err
	}
	prev := singles

	// estimatedEntries tracks Σ counts of the previous level's large
	// itemsets: an upper bound on the id-list entries the next pass's
	// AddCollect would materialize (every containment of a candidate
	// implies containment of each generating large itemset).
	estimatedEntries := 0
	for _, cs := range res.Levels[0] {
		estimatedEntries += cs.Count
	}

	var tidLists [][]int32 // nil until switched
	switched := false
	var buf []item.Item // transform scratch

	for k := 2; opt.MaxK == 0 || k <= opt.MaxK; k++ {
		if !switched {
			cands := Gen(prev)
			if len(cands) == 0 {
				break
			}
			tree, err := hashtree.Build(cands, opt.Count.MaxLeaf)
			if err != nil {
				return nil, err
			}
			counter := tree.NewCounter()
			collect := estimatedEntries <= budget
			var lists [][]int32
			scanErr := db.Scan(func(tx txdb.Transaction) error {
				var s item.Itemset
				s, buf = opt.Count.Apply(buf, tx.Items)
				if !collect {
					counter.Add(s)
					return nil
				}
				var ids []int32
				counter.AddCollect(s, func(idx int32) { ids = append(ids, idx) })
				if len(ids) > 0 {
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					lists = append(lists, ids)
				}
				return nil
			})
			if scanErr != nil {
				return nil, scanErr
			}
			level, idMap := harvest(cands, counter.Counts(), res)
			if len(level) == 0 {
				break
			}
			prev = setsOf(level)
			estimatedEntries = 0
			for _, cs := range level {
				estimatedEntries += cs.Count
			}
			if collect {
				// Remap candidate ids to large ids and switch.
				tidLists = remap(lists, idMap)
				switched = true
			}
			continue
		}

		// AprioriTid regime: derive level k from id lists alone.
		cands := genWithParents(prev)
		if len(cands) == 0 {
			break
		}
		byGen1 := make(map[int32][]int32)
		for ci, c := range cands {
			byGen1[c.gen1] = append(byGen1[c.gen1], int32(ci))
		}
		counts := make([]int, len(cands))
		next := tidLists[:0]
		for _, ids := range tidLists {
			present := make(map[int32]struct{}, len(ids))
			for _, id := range ids {
				present[id] = struct{}{}
			}
			var newIDs []int32
			for _, id := range ids {
				for _, ci := range byGen1[id] {
					if _, ok := present[cands[ci].gen2]; ok {
						counts[ci]++
						newIDs = append(newIDs, ci)
					}
				}
			}
			if len(newIDs) > 0 {
				sort.Slice(newIDs, func(i, j int) bool { return newIDs[i] < newIDs[j] })
				next = append(next, newIDs)
			}
		}
		tidLists = next

		sets := make([]item.Itemset, len(cands))
		for i, c := range cands {
			sets[i] = c.set
		}
		level, idMap := harvest(sets, counts, res)
		if len(level) == 0 {
			break
		}
		prev = setsOf(level)
		tidLists = remap(tidLists, idMap)
	}
	return res, nil
}

// singletonLevel runs pass 1 and records L1; it returns the sorted L1 sets
// (nil if none are large).
func singletonLevel(db txdb.DB, opt Options, res *Result) ([]item.Itemset, error) {
	tmp, err := Mine(db, Options{MinSupport: opt.MinSupport, MaxK: 1, Count: opt.Count})
	if err != nil {
		return nil, err
	}
	if len(tmp.Levels) == 0 {
		return nil, nil
	}
	res.Levels = append(res.Levels, tmp.Levels[0])
	sets := make([]item.Itemset, len(tmp.Levels[0]))
	for i, cs := range tmp.Levels[0] {
		res.Table.Put(cs.Set, cs.Count)
		sets[i] = cs.Set
	}
	return sets, nil
}

// harvest filters candidates by minimum count, appends the level to res and
// returns it along with the candidate-id → large-id remapping.
func harvest(cands []item.Itemset, counts []int, res *Result) ([]item.CountedSet, map[int32]int32) {
	var level []item.CountedSet
	idMap := make(map[int32]int32)
	for ci, c := range cands {
		if counts[ci] >= res.MinCount {
			idMap[int32(ci)] = int32(len(level))
			level = append(level, item.CountedSet{Set: c, Count: counts[ci]})
		}
	}
	if len(level) > 0 {
		res.Levels = append(res.Levels, level)
		for _, cs := range level {
			res.Table.Put(cs.Set, cs.Count)
		}
	}
	return level, idMap
}

func setsOf(level []item.CountedSet) []item.Itemset {
	sets := make([]item.Itemset, len(level))
	for i, cs := range level {
		sets[i] = cs.Set
	}
	return sets
}

// remap rewrites id lists through idMap, dropping unmapped (small) ids and
// empty transactions.
func remap(lists [][]int32, idMap map[int32]int32) [][]int32 {
	out := lists[:0]
	for _, ids := range lists {
		w := 0
		for _, id := range ids {
			if nid, ok := idMap[id]; ok {
				ids[w] = nid
				w++
			}
		}
		if w > 0 {
			out = append(out, ids[:w])
		}
	}
	return out
}

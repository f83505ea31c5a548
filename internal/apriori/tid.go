package apriori

import (
	"sort"

	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// MineTid implements AprioriTid (Agrawal & Srikant, VLDB 1994 §2.2): after
// the first pass, the raw database is never read again. Instead each
// transaction is represented by the set of candidate ids it contains, and
// pass k derives containment of a k-candidate from containment of its two
// generating (k-1)-candidates. Transactions whose candidate set becomes
// empty drop out entirely, so later passes can be dramatically cheaper on
// sparse data — at the price of materializing the id lists in memory.
//
// MineTid returns exactly the same Result as Mine.
func MineTid(db txdb.DB, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := db.Count()
	res := &Result{Table: item.NewSupportTable(n), N: n, MinCount: MinCount(opt.MinSupport, n)}

	// Pass 1 over the real data: count singletons and build the initial
	// per-transaction id lists.
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
	idOf := make(map[item.Item]int32, len(l1))
	prevSets := make([]item.Itemset, len(l1))
	for i, cs := range l1 {
		res.Table.Put(cs.Set, cs.Count)
		idOf[cs.Set[0]] = int32(i)
		prevSets[i] = cs.Set
	}

	// tidLists[t] holds the sorted ids of the previous level's large
	// itemsets contained in transaction t. Transactions with no ids are
	// dropped from the slice.
	var tidLists [][]int32
	var buf []item.Item // transform scratch
	if err := db.Scan(func(tx txdb.Transaction) error {
		var s item.Itemset
		s, buf = opt.Count.Apply(buf, tx.Items)
		var ids []int32
		for _, x := range s {
			if id, ok := idOf[x]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			tidLists = append(tidLists, ids)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for k := 2; opt.MaxK == 0 || k <= opt.MaxK; k++ {
		cands := genWithParents(prevSets)
		if len(cands) == 0 {
			break
		}
		// Index candidates by their first generator so each transaction
		// only examines candidates with at least one generator present.
		byGen1 := make(map[int32][]int32) // gen1 id → candidate ids
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

		var level []item.CountedSet
		idMap := make(map[int32]int32, len(cands)) // old candidate id → new large id
		prevSets = prevSets[:0]
		for ci, c := range cands {
			if counts[ci] >= res.MinCount {
				idMap[int32(ci)] = int32(len(level))
				level = append(level, item.CountedSet{Set: c.set, Count: counts[ci]})
				prevSets = append(prevSets, c.set)
			}
		}
		if len(level) == 0 {
			break
		}
		res.Levels = append(res.Levels, level)
		for _, cs := range level {
			res.Table.Put(cs.Set, cs.Count)
		}
		// Re-map transaction id lists from candidate ids to large ids,
		// dropping ids of small candidates.
		remapped := tidLists[:0]
		for _, ids := range tidLists {
			w := 0
			for _, id := range ids {
				if nid, ok := idMap[id]; ok {
					ids[w] = nid
					w++
				}
			}
			if w > 0 {
				remapped = append(remapped, ids[:w])
			}
		}
		tidLists = remapped
	}
	return res, nil
}

// tidCand is a candidate with the ids of its two generating (k-1)-itemsets.
type tidCand struct {
	set        item.Itemset
	gen1, gen2 int32
}

// genWithParents is apriori-gen (join + prune) that additionally records
// which two previous-level itemsets joined into each candidate. prev must
// be sorted; candidate generator ids are indices into prev.
func genWithParents(prev []item.Itemset) []tidCand {
	if len(prev) == 0 {
		return nil
	}
	k1 := prev[0].Len()
	prevSet := make(map[item.Key]struct{}, len(prev))
	for _, p := range prev {
		prevSet[p.Key()] = struct{}{}
	}
	var out []tidCand
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			if !samePrefix(prev[i], prev[j], k1-1) {
				break
			}
			cand := prev[i].With(prev[j][k1-1])
			if hasAllSubsets(cand, prevSet) {
				out = append(out, tidCand{set: cand, gen1: int32(i), gen2: int32(j)})
			}
		}
	}
	return out
}

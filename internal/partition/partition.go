// Package partition implements the Partition algorithm of Savasere,
// Omiecinski & Navathe ("An Efficient Algorithm for Mining Association Rules
// in Large Databases", VLDB 1995) — the present paper's authors' own
// frequent-itemset miner, included both as a baseline backend and because
// the paper cites it as one of the usable step-1 algorithms.
//
// The algorithm makes exactly two passes over the database:
//
//	Phase I:  split the database into memory-sized partitions; mine each
//	          partition for locally large itemsets using vertical tidlist
//	          intersections (no rescanning within a partition).
//	Merge:    the union of locally large itemsets is a superset of the
//	          globally large itemsets (any globally large itemset is
//	          locally large in at least one partition).
//	Phase II: one more pass counts the merged candidates exactly.
//
// With a taxonomy attached, transactions are extended with ancestors and
// item+ancestor pairs are pruned, which makes Partition a drop-in
// generalized miner that matches package gen's output exactly.
package partition

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Failpoints (see internal/fault): PointPhase1 is evaluated before each
// partition is mined locally, PointPhase2 before the exact counting pass.
// Arming either with an error models a run killed mid-pass; with
// Options.CheckpointPath set, the next run resumes from the manifest.
const (
	PointPhase1 = "partition.phase1"
	PointPhase2 = "partition.phase2"
)

// Options configures a Partition run.
type Options struct {
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// NumPartitions is the number of database partitions (default 1; the
	// paper sizes partitions to fit main memory).
	NumPartitions int
	// MaxK caps the itemset size (0 = unlimited).
	MaxK int
	// Taxonomy, when non-nil, switches on generalized mining: transactions
	// are extended with ancestors and item+ancestor itemsets are pruned.
	Taxonomy *taxonomy.Taxonomy
	// CheckpointPath, when non-empty, makes the run crash-resumable: after
	// each completed phase-I partition a resume manifest is atomically
	// persisted there, a fresh run whose options match resumes from the
	// last completed partition, and the manifest is removed when Mine
	// succeeds. The result is identical to an uninterrupted run.
	CheckpointPath string
	// Count holds phase-II counting options. Count.TransformInto must be nil.
	Count count.Options
}

func (o Options) validate() error {
	if o.MinSupport <= 0 || o.MinSupport > 1 {
		return fmt.Errorf("partition: MinSupport = %v, want (0, 1]", o.MinSupport)
	}
	if o.NumPartitions < 0 {
		return fmt.Errorf("partition: NumPartitions = %d, want ≥ 0", o.NumPartitions)
	}
	if o.MaxK < 0 {
		return fmt.Errorf("partition: MaxK = %d, want ≥ 0", o.MaxK)
	}
	if o.Count.TransformInto != nil {
		return fmt.Errorf("partition: Count.TransformInto must be nil (set internally)")
	}
	return nil
}

// tidset is a sorted list of local transaction indices.
type tidset []int32

func intersect(a, b tidset) tidset {
	out := make(tidset, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Mine runs the two-phase Partition algorithm over db.
func Mine(db txdb.DB, opt Options) (*apriori.Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := db.Count()
	res := &apriori.Result{
		Table:    item.NewSupportTable(n),
		N:        n,
		MinCount: apriori.MinCount(opt.MinSupport, n),
	}
	if n == 0 {
		return res, nil
	}
	parts := opt.NumPartitions
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}

	// With a memory budget configured, re-derive the partitioning from the
	// data: one cheap sizing pass, then raise the partition count until each
	// partition's phase-I footprint fits the budget. Narrowing is a pure
	// function of (db, options, budget total), so checkpointed runs resume
	// against the same partitioning.
	budget := opt.Count.Mem
	var dbBytes int64
	if budget.Total() > 0 {
		var err error
		if dbBytes, err = estimateDBBytes(db, opt.Taxonomy); err != nil {
			return nil, err
		}
		parts = narrowParts(parts, dbBytes, budget.Total())
		if parts > n {
			parts = n
		}
	}

	var transform func(item.Itemset) item.Itemset
	if opt.Taxonomy != nil {
		tax := opt.Taxonomy
		transform = func(s item.Itemset) item.Itemset { return tax.Extend(s) }
	}

	// Phase I: one pass streaming partitions; each partition is buffered
	// (it must fit in memory — the algorithm's premise), mined locally,
	// and released. Partitions are mutually independent, so with
	// Count.Parallelism > 1 and a range-scannable database they are mined
	// concurrently (the parallelization the original paper points out).
	// With a checkpoint armed, partitions completed by a previous killed
	// run are loaded from the manifest and skipped.
	global := make(map[item.Key]struct{})
	partSize := (n + parts - 1) / parts
	var ckpt *checkpoint
	if opt.CheckpointPath != "" {
		ckpt = newCheckpoint(opt.CheckpointPath, n, parts, opt)
		ckpt.load(global)
	}
	switch ranger, ok := db.(rangeScanner); {
	case ckpt.allDone():
		// Every partition was mined before the previous run died; the
		// merged set is already seeded from the manifest.
	case ok && opt.Count.Parallelism > 1:
		if err := phaseOneParallel(ranger, n, parts, partSize, opt, transform, global, ckpt, dbBytes); err != nil {
			return nil, err
		}
	default:
		led := newLedger(budget)
		defer led.release()
		buf := make([]item.Itemset, 0, partSize)
		p := 0
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			skip := ckpt.done(p)
			defer func() { buf = buf[:0]; p++; led.release() }()
			if skip {
				return nil
			}
			if err := fault.Hit(PointPhase1); err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			locallyLarge(buf, opt, global)
			return ckpt.complete(p, global)
		}
		err := db.Scan(func(tx txdb.Transaction) error {
			s := tx.Items
			if transform != nil {
				s = transform(s)
			} else {
				s = s.Clone()
			}
			cost := phase1Factor * txBytes(s.Len())
			if err := led.charge(cost); err != nil {
				// Adaptive narrowing: the up-front estimate undershot (or
				// the serving side is holding budget) — mine what is
				// buffered, which frees the ledger, and retry. Only without
				// a checkpoint: its resume contract needs the partition
				// boundaries the manifest fingerprinted.
				if ckpt != nil || len(buf) == 0 {
					return err
				}
				if ferr := flush(); ferr != nil {
					return ferr
				}
				if err := led.charge(cost); err != nil {
					return err
				}
			}
			buf = append(buf, s)
			if len(buf) >= partSize {
				return flush()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}

	// Merge: group candidates by size.
	bySize := map[int][]item.Itemset{}
	maxK := 0
	for k := range global {
		s := k.Itemset()
		bySize[s.Len()] = append(bySize[s.Len()], s)
		if s.Len() > maxK {
			maxK = s.Len()
		}
	}
	groups := make([][]item.Itemset, 0, maxK)
	for k := 1; k <= maxK; k++ {
		g := bySize[k]
		sort.Slice(g, func(i, j int) bool { return g[i].Compare(g[j]) < 0 })
		groups = append(groups, g)
	}

	// Phase II: one pass exact counting of all candidates.
	if err := fault.Hit(PointPhase2); err != nil {
		return nil, err
	}
	cnt := opt.Count
	if opt.Taxonomy != nil {
		cnt.TransformInto = opt.Taxonomy.ExtendInto
		cnt.Tax = opt.Taxonomy
	}
	counts, err := count.Multi(db, groups, cnt)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		var level []item.CountedSet
		for i, s := range g {
			if counts[gi][i] >= res.MinCount {
				level = append(level, item.CountedSet{Set: s, Count: counts[gi][i]})
			}
		}
		if len(level) == 0 {
			break // L_k empty ⇒ all longer levels empty too
		}
		res.Levels = append(res.Levels, level)
		for _, cs := range level {
			res.Table.Put(cs.Set, cs.Count)
		}
	}
	ckpt.remove()
	return res, nil
}

// rangeScanner is satisfied by databases supporting contiguous range scans
// (txdb.MemDB); it enables parallel phase I.
type rangeScanner interface {
	txdb.DB
	ScanRange(lo, hi int, fn func(txdb.Transaction) error) error
}

// phaseOneParallel mines the partitions concurrently, each worker loading
// its contiguous range and merging locally large itemsets under a mutex.
// Partitions the checkpoint records as done are skipped entirely (the done
// set is snapshotted before the workers start; within one run no partition
// is dispatched twice, so the snapshot cannot go stale).
func phaseOneParallel(db rangeScanner, n, parts, partSize int, opt Options, transform func(item.Itemset) item.Itemset, global map[item.Key]struct{}, ckpt *checkpoint, dbBytes int64) error {
	budget := opt.Count.Mem
	workers := opt.Count.Parallelism
	if workers > parts {
		workers = parts
	}
	// Every worker holds one partition's phase-I footprint at a time; cap
	// the fleet so their combined footprints fit the budget.
	workers = maxWorkers(workers, parts, dbBytes, budget.Total())
	doneAtStart := make([]bool, parts)
	for p := range doneAtStart {
		doneAtStart[p] = ckpt.done(p)
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			led := newLedger(budget)
			defer led.release()
			for {
				p := int(next.Add(1)) - 1
				lo := p * partSize
				if lo >= n {
					return
				}
				if doneAtStart[p] {
					continue
				}
				if err := fault.Hit(PointPhase1); err != nil {
					errs[w] = fmt.Errorf("partition %d: %w", p, err)
					return
				}
				hi := lo + partSize
				if hi > n {
					hi = n
				}
				buf := make([]item.Itemset, 0, hi-lo)
				err := db.ScanRange(lo, hi, func(tx txdb.Transaction) error {
					s := tx.Items
					if transform != nil {
						s = transform(s)
					} else {
						s = s.Clone()
					}
					// Parallel ranges are fixed, so a failed charge cannot
					// flush early the way the sequential path does; it
					// aborts the worker (the checkpoint, if any, keeps
					// completed partitions).
					if err := led.charge(phase1Factor * txBytes(s.Len())); err != nil {
						return fmt.Errorf("partition %d: %w", p, err)
					}
					buf = append(buf, s)
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				local := make(map[item.Key]struct{})
				locallyLarge(buf, opt, local)
				mu.Lock()
				for k := range local {
					global[k] = struct{}{}
				}
				err = ckpt.complete(p, global)
				mu.Unlock()
				led.release()
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// locallyLarge mines one in-memory partition with vertical tidlists and adds
// every locally large itemset to global.
func locallyLarge(part []item.Itemset, opt Options, global map[item.Key]struct{}) {
	localMin := apriori.MinCount(opt.MinSupport, len(part))

	// Build vertical layout.
	tids := map[item.Item]tidset{}
	for i, s := range part {
		for _, x := range s {
			tids[x] = append(tids[x], int32(i))
		}
	}
	type entry struct {
		set  item.Itemset
		tids tidset
	}
	var prev []entry
	for x, tl := range tids {
		if len(tl) >= localMin {
			prev = append(prev, entry{set: item.New(x), tids: tl})
		}
	}
	sort.Slice(prev, func(i, j int) bool { return prev[i].set.Compare(prev[j].set) < 0 })
	for _, e := range prev {
		global[e.set.Key()] = struct{}{}
	}

	for k := 2; len(prev) > 1 && (opt.MaxK == 0 || k <= opt.MaxK); k++ {
		prevKeys := make(map[item.Key]struct{}, len(prev))
		for _, e := range prev {
			prevKeys[e.set.Key()] = struct{}{}
		}
		var next []entry
		for i := 0; i < len(prev); i++ {
			for j := i + 1; j < len(prev); j++ {
				if !samePrefix(prev[i].set, prev[j].set, k-2) {
					break
				}
				cand := prev[i].set.With(prev[j].set[k-2])
				if opt.Taxonomy != nil && hasAncestorPair(cand, opt.Taxonomy) {
					continue
				}
				if !allSubsetsLarge(cand, prevKeys) {
					continue
				}
				tl := intersect(prev[i].tids, prev[j].tids)
				if len(tl) >= localMin {
					next = append(next, entry{set: cand, tids: tl})
				}
			}
		}
		for _, e := range next {
			global[e.set.Key()] = struct{}{}
		}
		prev = next
	}
}

func samePrefix(a, b item.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsLarge(cand item.Itemset, prev map[item.Key]struct{}) bool {
	ok := true
	cand.Subsets(cand.Len()-1, func(sub item.Itemset) {
		if !ok {
			return
		}
		if _, found := prev[sub.Key()]; !found {
			ok = false
		}
	})
	return ok
}

func hasAncestorPair(s item.Itemset, tax *taxonomy.Taxonomy) bool {
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			if i != j && tax.IsAncestor(s[i], s[j]) {
				return true
			}
		}
	}
	return false
}

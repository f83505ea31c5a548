package count

import (
	"fmt"
	"sync"

	"negmine/internal/fault"
	"negmine/internal/hashtree"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// PointPass is the failpoint (see internal/fault) evaluated at the start of
// every counting pass, whichever engine runs it.
const PointPass = "count.pass"

// Multi counts several candidate groups — each group of uniform itemset
// size, sizes may differ across groups — in a single scan of db. This is the
// primitive behind the paper's improved negative algorithm (candidates of
// all sizes counted in one pass, §2.2). The result is indexed
// [group][candidate].
func Multi(db txdb.DB, groups [][]item.Itemset, opt Options) ([][]int, error) {
	return MultiTransformed(db, groups, nil, opt)
}

// MultiTransformed is Multi with an optional per-group transaction
// transform. A narrower transform per group (e.g. extending a transaction
// only with the ancestors relevant to that group's candidates) keeps each
// hash tree's probe width as small as a dedicated pass would, while still
// paying for only one scan. transforms may be nil (use the shared
// Options.TransformInto for every group); individual entries may be nil too.
// The pass runs on the one engine EngineFor names; an engine that cannot
// reserve its floor fails with an error wrapping govern.ErrOverBudget.
func MultiTransformed(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error) {
	if transforms != nil && len(transforms) != len(groups) {
		return nil, fmt.Errorf("count: %d transforms for %d groups", len(transforms), len(groups))
	}
	if err := fault.Hit(PointPass); err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	return EngineFor(db, transforms, opt).Multi(db, groups, transforms, opt)
}

// HashTreeEngine counts by probing one Agrawal–Srikant hash tree per group
// against every (transformed) transaction. It is the paper-faithful scan
// engine: it works over any DB and any transform, and parallelizes by
// sharding transactions across workers with per-worker counters merged at
// the end.
type HashTreeEngine struct{}

// Name implements Engine.
func (HashTreeEngine) Name() string { return "hashtree" }

// hashTreeWorker is the per-goroutine counting state: one counter per
// group plus the scratch buffers that make steady-state counting
// allocation-free. The shared buffer holds the transaction transformed by
// the shared Options transform — computed once per transaction and reused
// by every group without its own transform (several groups re-running the
// same ancestor extension was a measured hot spot); the group buffer holds
// the current per-group transform's output.
type hashTreeWorker struct {
	cs   []*hashtree.Counter
	buf  []item.Item // shared-transform scratch
	gbuf []item.Item // per-group-transform scratch
}

func newHashTreeWorker(trees []*hashtree.Tree) *hashTreeWorker {
	w := &hashTreeWorker{
		cs:   make([]*hashtree.Counter, len(trees)),
		buf:  make([]item.Item, 0, 64),
		gbuf: make([]item.Item, 0, 64),
	}
	for i, t := range trees {
		w.cs[i] = t.NewCounter()
	}
	return w
}

// addAll probes one raw transaction against every group's tree.
func (w *hashTreeWorker) addAll(transforms []TransformInto, opt Options, raw item.Itemset) {
	var shared item.Itemset
	sharedDone := false
	for g, c := range w.cs {
		if transforms != nil && transforms[g] != nil {
			s := transforms[g](w.gbuf[:0], raw)
			c.Add(s)
			w.gbuf = s[:0]
			continue
		}
		if !sharedDone {
			shared, w.buf = opt.Apply(w.buf, raw)
			sharedDone = true
		}
		c.Add(shared)
	}
}

// Multi implements Engine.
func (HashTreeEngine) Multi(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error) {
	if transforms != nil && len(transforms) != len(groups) {
		return nil, fmt.Errorf("count: %d transforms for %d groups", len(transforms), len(groups))
	}
	sharder, workers := shardWorkers(db, opt)
	var reserved int64
	for _, g := range groups {
		reserved += hashtree.EstimateBytes(len(g), workers)
	}
	if err := opt.Mem.Reserve(reserved); err != nil {
		return nil, fmt.Errorf("count: hash trees: %w", err)
	}
	defer opt.Mem.Release(reserved)

	trees := make([]*hashtree.Tree, len(groups))
	for g, cands := range groups {
		t, err := hashtree.Build(cands, hashtree.DefaultMaxLeaf)
		if err != nil {
			return nil, fmt.Errorf("count: group %d: %w", g, err)
		}
		trees[g] = t
	}

	if workers < 2 {
		w := newHashTreeWorker(trees)
		err := db.Scan(func(tx txdb.Transaction) error {
			w.addAll(transforms, opt, tx.Items)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return collect(w.cs), nil
	}

	all := make([]*hashTreeWorker, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := newHashTreeWorker(trees)
			all[wi] = w
			errs[wi] = sharder.ScanShard(wi, workers, func(tx txdb.Transaction) error {
				w.addAll(transforms, opt, tx.Items)
				return nil
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("count: worker %d: %w", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		for g := range trees {
			all[0].cs[g].Merge(all[w].cs[g])
		}
	}
	return collect(all[0].cs), nil
}

func collect(cs []*hashtree.Counter) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = c.Counts()
	}
	return out
}

package negative

import (
	"sort"
	"time"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// mineImproved is the paper's improved ("Better") algorithm (§2.2, Figure
// 3): first mine all generalized large itemsets (n passes), then delete all
// small 1-itemsets from the taxonomy, generate negative candidates of every
// size in one step, and count them in a single extra pass — or in
// ⌈candidates/MaxCandidates⌉ passes when the §2.5 memory bound is set.
func mineImproved(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*Result, error) {
	start := time.Now()
	large, err := gen.Mine(db, tax, opt.Gen)
	if err != nil {
		return nil, err
	}
	stage1 := time.Since(start)
	res, err := mineStages23(large, tax, opt, defaultCount(db, tax, opt))
	if err != nil {
		return nil, err
	}
	res.Timing.Stage1 = stage1
	return res, nil
}

// mineStages23 runs candidate generation, counting and rule generation (the
// paper's stages 2 and 3) against an already-mined stage-1 result, with the
// counting pass delegated to countFn. The batch Improved driver and
// MineWithCounts both go through here.
func mineStages23(large *apriori.Result, tax *taxonomy.Taxonomy, opt Options, countFn CountFunc) (*Result, error) {
	res := &Result{Large: large, CandidatesBySize: map[int]int{}}
	if len(large.Levels) < 2 {
		return res, nil
	}

	negStart := time.Now()
	// "Delete all small 1-itemsets from the taxonomy": the restricted view
	// drives candidate generation only — support counting below still uses
	// the original taxonomy, since a category's support comes from all its
	// leaves, small ones included.
	sup := singleSupports(large.Table, tax.Size())
	gtax := tax.Restrict(func(x item.Item) bool { return sup[x] >= 0 })
	restricted := time.Now()
	cands, walk := generateCandidates(large.Levels, large.Table, gtax, sup, opt)
	res.Walk = walk
	for _, c := range cands {
		res.CandidatesBySize[c.Set.Len()]++
	}
	generated := time.Now()

	negs, err := countAndFilter(countFn, tax, cands, opt, large.N)
	if err != nil {
		return nil, err
	}
	counted := time.Now()
	res.Negatives = negs
	res.Rules = generateRules(negs, large.Table, opt.MinRI)
	done := time.Now()
	res.Timing = Timing{
		Negative: done.Sub(negStart),
		Restrict: restricted.Sub(negStart),
		CandGen:  generated.Sub(restricted),
		Count:    counted.Sub(generated),
		RuleGen:  done.Sub(counted),
	}
	return res, nil
}

// mineNaive is the paper's naive algorithm (§2.2.1): each iteration k first
// mines the generalized large k-itemsets (one pass), then generates the
// negative candidates of size k and counts them (a second pass) — 2n passes
// in total in the paper's accounting. This implementation skips the
// iteration-1 negative pass (1-item negative itemsets cannot form a rule
// with non-empty antecedent and consequent), so it makes 2n−1 passes; the
// ~2× gap to Improved's n+1 is preserved.
func mineNaive(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*Result, error) {
	stepper, err := gen.NewStepper(db, tax, opt.Gen)
	if err != nil {
		return nil, err
	}
	res := &Result{CandidatesBySize: map[int]int{}}
	var negs []Itemset
	k := 0
	for {
		stageStart := time.Now()
		level, err := stepper.Next()
		res.Timing.Stage1 += time.Since(stageStart)
		if err != nil {
			return nil, err
		}
		if level == nil {
			break
		}
		k++
		if k < 2 {
			continue
		}
		negStart := time.Now()
		table := stepper.Result().Table
		levels := make([][]item.CountedSet, k) // level k alone
		levels[k-1] = level
		cands, walk := generateCandidates(levels, table, tax, singleSupports(table, tax.Size()), opt)
		res.Walk.add(walk)
		res.CandidatesBySize[k] += len(cands)
		generated := time.Now()
		lvlNegs, err := countAndFilter(defaultCount(db, tax, opt), tax, cands, opt, stepper.Result().N)
		if err != nil {
			return nil, err
		}
		negs = append(negs, lvlNegs...)
		res.Timing.CandGen += generated.Sub(negStart)
		res.Timing.Count += time.Since(generated)
	}
	res.Large = stepper.Result()
	ruleStart := time.Now()
	sort.Slice(negs, func(i, j int) bool { return negs[i].Set.Compare(negs[j].Set) < 0 })
	res.Negatives = negs
	res.Rules = generateRules(negs, res.Large.Table, opt.MinRI)
	res.Timing.RuleGen = time.Since(ruleStart)
	res.Timing.Negative = res.Timing.CandGen + res.Timing.Count + res.Timing.RuleGen
	return res, nil
}

// defaultCount is the batch CountFunc: every group is counted with one
// call to the multi-tree single-pass counter over the full database.
func defaultCount(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) CountFunc {
	return func(groups [][]item.Itemset, transforms []count.TransformInto) ([][]int, error) {
		cnt := opt.Count
		cnt.Tax = tax
		return count.MultiTransformed(db, groups, transforms, cnt)
	}
}

// countAndFilter counts the actual support of every candidate (batching
// passes per Options.MaxCandidates) and keeps those whose actual support
// falls at least MinSup·MinRI below expectation — the negative itemsets.
func countAndFilter(countFn CountFunc, tax *taxonomy.Taxonomy, cands []Candidate, opt Options, n int) ([]Itemset, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	threshold := opt.MinSupport * opt.MinRI
	batch := opt.MaxCandidates
	if batch <= 0 {
		batch = len(cands)
	}
	var negs []Itemset
	for lo := 0; lo < len(cands); lo += batch {
		hi := lo + batch
		if hi > len(cands) {
			hi = len(cands)
		}
		chunk := cands[lo:hi]
		// Group by itemset size for the multi-tree single-pass counter.
		bySize := map[int][]int{} // size → indices into chunk
		for i, c := range chunk {
			bySize[c.Set.Len()] = append(bySize[c.Set.Len()], i)
		}
		sizes := make([]int, 0, len(bySize))
		for s := range bySize {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		groups := make([][]item.Itemset, len(sizes))
		for gi, s := range sizes {
			idx := bySize[s]
			g := make([]item.Itemset, len(idx))
			for j, i := range idx {
				g[j] = chunk[i].Set
			}
			groups[gi] = g
		}
		// Each size group gets its own ancestor filter so its hash tree
		// sees transactions exactly as narrow as a dedicated per-level
		// pass would — the single scan then strictly dominates the Naive
		// algorithm's schedule. Setting Tax declares the transforms as
		// ancestor extensions, which lets the bitmap backend count the
		// same pass from closure rows instead.
		transforms := make([]count.TransformInto, len(groups))
		for gi, g := range groups {
			transforms[gi] = gen.ExtendTransform(tax, g)
		}
		counts, err := countFn(groups, transforms)
		if err != nil {
			return nil, err
		}
		for gi, s := range sizes {
			for j, i := range bySize[s] {
				c := chunk[i]
				actual := float64(counts[gi][j]) / float64(n)
				var negative bool
				switch opt.Filter {
				case AbsoluteFilter:
					// Figure 3's literal condition: count below the
					// MinSup·MinRI fraction of the database.
					negative = actual < threshold
				default:
					// §2's deviation condition.
					negative = c.Expected-actual >= threshold
				}
				if negative {
					negs = append(negs, Itemset{Set: c.Set, Expected: c.Expected, Count: counts[gi][j], N: n, Source: c.Source, Via: c.Via})
				}
			}
		}
	}
	sort.Slice(negs, func(i, j int) bool { return negs[i].Set.Compare(negs[j].Set) < 0 })
	return negs, nil
}

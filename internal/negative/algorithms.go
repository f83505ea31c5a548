package negative

import (
	"slices"
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
// 3): first mine all generalized large itemsets (n passes), then generate
// negative candidates of every size in one step over the large 1-itemsets
// alone, and count them in a single extra pass — or in
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
	// "Delete all small 1-itemsets from the taxonomy": the generator never
	// chooses an item of no support in sup, and L1 is ancestor-closed (see
	// MineWithCounts), so walking tax itself is walking that compressed one.
	sup := levelSupports(large.Levels[0], large.Table.Total(), tax.Size())
	cands := generateCandidates(large.Levels, large.Table.Total(), tax, sup, opt)
	res.Walk = cands.walk
	for k, n := range cands.bySize {
		if n > 0 {
			res.CandidatesBySize[k] = n
		}
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
		CandGen:  generated.Sub(negStart),
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
	var sup []float64 // read off L1
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
		total := stepper.Result().Table.Total()
		if k < 2 {
			sup = levelSupports(level, total, tax.Size())
			continue
		}
		negStart := time.Now()
		levels := make([][]item.CountedSet, k) // level k alone
		levels[k-1] = level
		cands := generateCandidates(levels, total, tax, sup, opt)
		res.Walk.add(cands.walk)
		res.CandidatesBySize[k] += len(cands.sets)
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
// The candidates come sorted by size, so a batch's groups of one size each
// are consecutive runs of cands.sets, handed over without a copy.
func countAndFilter(countFn CountFunc, tax *taxonomy.Taxonomy, cands *generated, opt Options, n int) ([]Itemset, error) {
	sets := cands.sets
	if len(sets) == 0 {
		return nil, nil
	}
	threshold := opt.MinSupport * opt.MinRI
	batch := opt.MaxCandidates
	if batch <= 0 {
		batch = len(sets)
	}
	var negs []Itemset
	for lo := 0; lo < len(sets); lo += batch {
		hi := min(lo+batch, len(sets))
		// One group per size for the multi-tree single-pass counter. Each
		// group's capacity runs to the end of the batch, which lets the
		// counter see the groups as the one slice they were cut from.
		var groups [][]item.Itemset
		for k, at := 0, 0; k < len(cands.bySize); k++ {
			a, b := max(at, lo), min(at+cands.bySize[k], hi)
			if a < b {
				groups = append(groups, sets[a:b:hi])
			}
			at += cands.bySize[k]
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
		i := lo
		for gi, g := range groups {
			for j := range g {
				p := cands.paths[i]
				actual := float64(counts[gi][j]) / float64(n)
				var negative bool
				switch opt.Filter {
				case AbsoluteFilter:
					// Figure 3's literal condition: count below the
					// MinSup·MinRI fraction of the database.
					negative = actual < threshold
				default:
					// §2's deviation condition.
					negative = p.expected-actual >= threshold
				}
				if negative {
					negs = append(negs, Itemset{Set: g[j], Expected: p.expected, Count: counts[gi][j], N: n, Source: cands.sources[p.source], Via: p.via})
				}
				i++
			}
		}
	}
	slices.SortFunc(negs, func(a, b Itemset) int { return a.Set.Compare(b.Set) })
	return negs, nil
}

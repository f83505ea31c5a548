package gen

import (
	"fmt"
	"sort"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Stepper runs generalized level-wise mining one level at a time: each Next
// call returns L_k after one counting pass — one scan of the database, or
// none when it is count.Indexed — except level 2 over an index whose rows
// carry a pair table (count.BuildIndex, internal/incr), which is read off
// that table and counts nothing. The paper's Naive negative algorithm
// interleaves a negative-candidate pass after each large-itemset pass, which
// requires this per-level control.
type Stepper struct {
	db   txdb.DB
	tax  *taxonomy.Taxonomy
	opt  Options
	res  *apriori.Result
	k    int // next level to mine
	done bool
}

// NewStepper validates options and prepares a stepper. No database pass
// happens until the first Next call.
func NewStepper(db txdb.DB, tax *taxonomy.Taxonomy, opt Options) (*Stepper, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if tax == nil {
		return nil, fmt.Errorf("gen: nil taxonomy")
	}
	n := db.Count()
	return &Stepper{
		db:  db,
		tax: tax,
		opt: opt,
		res: &apriori.Result{
			Table:    item.NewTable(n),
			N:        n,
			MinCount: apriori.MinCount(opt.MinSupport, n),
		},
		k: 1,
	}, nil
}

// Next mines the next level and returns it, sorted. It returns (nil, nil)
// once no further level exists (or MaxK is reached).
func (s *Stepper) Next() ([]item.CountedSet, error) {
	if s.done || s.opt.MaxK != 0 && s.k > s.opt.MaxK {
		s.done = true
		return nil, nil
	}
	level, err := s.level()
	if err != nil {
		return nil, err
	}
	if len(level) == 0 {
		s.done = true
		return nil, nil
	}
	s.res.AddLevel(level)
	s.k++
	return level, nil
}

// level mines level s.k: the first pass counts every item and category
// exactly; level 2 is read off a pair table where there is one; any other is
// counted from apriori-gen's candidates.
func (s *Stepper) level() ([]item.CountedSet, error) {
	if s.k == 1 {
		cnt := s.opt.Count
		cnt.Tax = s.tax // count the full ancestor extension
		singles, err := count.Singletons(s.db, cnt)
		if err != nil {
			return nil, err
		}
		return apriori.Level1(singles, s.res.MinCount), nil
	}
	if level, ok := s.tableLevel2(); ok {
		return level, nil
	}
	cands := genLevel(s.res.LevelSets(s.k-1), s.tax, s.k)
	if len(cands) == 0 {
		return nil, nil
	}
	cnt := s.opt.Count
	installTransform(&cnt, s.tax, cands)
	counts, err := count.Candidates(s.db, cands, cnt)
	if err != nil {
		return nil, err
	}
	var level []item.CountedSet
	for i, c := range cands {
		if counts[i] >= s.res.MinCount {
			level = append(level, item.CountedSet{Set: c, Count: counts[i]})
		}
	}
	sort.Slice(level, func(i, j int) bool { return level[i].Set.Compare(level[j].Set) < 0 })
	return level, nil
}

// Result returns the accumulated mining result (valid at any point; grows
// with each Next).
func (s *Stepper) Result() *apriori.Result { return s.res }

// tableLevel2 reads L2 off the pair table of the index the stepper mines,
// when this is level 2 and there is one: every pair of rows counted at least
// MinCount times that does not pair an item with its own ancestor (genLevel's
// filter), in lexicographic order. Such a pair's items are large — neither
// is counted less often than the pair — so the table answers apriori-gen's
// candidates and no others, as long as every large item has a row. It
// reports false when the level must be counted: any other level, a database
// not Indexed under the stepper's taxonomy, rows that carry no table or miss
// a large item.
func (s *Stepper) tableLevel2() ([]item.CountedSet, bool) {
	ix, ok := s.db.(count.Indexed)
	if s.k != 2 || !ok || ix.Taxonomy() != s.tax || ix.Matrix() == nil {
		return nil, false
	}
	m := ix.Matrix()
	for _, cs := range s.res.Levels[0] {
		if m.Row(cs.Set[0]) == nil {
			return nil, false
		}
	}
	var level []item.CountedSet
	ok = m.PairCounts(func(a, b item.Item, n int) {
		if n >= s.res.MinCount && !s.tax.IsAncestor(a, b) && !s.tax.IsAncestor(b, a) {
			level = append(level, item.CountedSet{Set: item.Itemset{a, b}, Count: n})
		}
	})
	return level, ok
}

package item

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
	n      int     // sets over every level
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
	t.levels, t.index, t.n = append(t.levels, level), append(t.index, ix), t.n+len(level)
}

// Count returns the absolute support count of s and whether it is known.
func (t *Table) Count(s Itemset) (int, bool) {
	k := len(s) - 1
	if k < 0 || k >= len(t.levels) {
		return 0, false
	}
	lvl := t.levels[k]
	h, ix := s.Hash(), t.index[k]
	for i, at := ix.Probe(h); i >= 0; i, at = ix.Next(h, at) {
		if lvl[i].Set.Equal(s) {
			return lvl[i].Count, true
		}
	}
	return 0, false
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

// Len returns the number of itemsets with recorded support.
func (t *Table) Len() int { return t.n }

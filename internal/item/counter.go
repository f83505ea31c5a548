package item

// CountedSet pairs an itemset with its support count.
type CountedSet struct {
	Set   Itemset
	Count int
}

// SupportTable is an itemset → support-count lookup built from the output of
// a mining pass, which mining algorithms hand around.
type SupportTable struct {
	counts map[Key]int
	total  int // number of transactions the counts are relative to
}

// NewSupportTable builds a table over n transactions.
func NewSupportTable(n int) *SupportTable {
	return &SupportTable{counts: make(map[Key]int), total: n}
}

// Put records the support count of s. Re-putting an itemset overwrites.
func (t *SupportTable) Put(s Itemset, count int) { t.counts[s.Key()] = count }

// Count returns the absolute support count of s and whether it is known.
func (t *SupportTable) Count(s Itemset) (int, bool) {
	n, ok := t.counts[s.Key()]
	return n, ok
}

// Support returns the relative support of s in [0,1] and whether it is known.
func (t *SupportTable) Support(s Itemset) (float64, bool) {
	n, ok := t.counts[s.Key()]
	return t.relative(n, ok)
}

// SupportBytes is Support for an itemset already encoded with
// Itemset.AppendKey. It does not allocate, which is what hot loops that
// probe the table once per generated set need.
func (t *SupportTable) SupportBytes(key []byte) (float64, bool) {
	n, ok := t.counts[Key(key)] // this form of lookup does not copy key
	return t.relative(n, ok)
}

func (t *SupportTable) relative(n int, ok bool) (float64, bool) {
	if !ok || t.total == 0 {
		return 0, ok
	}
	return float64(n) / float64(t.total), true
}

// Contains reports whether s has a recorded support.
func (t *SupportTable) Contains(s Itemset) bool {
	_, ok := t.counts[s.Key()]
	return ok
}

// Total returns the number of transactions counts are relative to.
func (t *SupportTable) Total() int { return t.total }

// Len returns the number of itemsets with recorded support.
func (t *SupportTable) Len() int { return len(t.counts) }

// Each calls fn for every (itemset, count) pair in unspecified order.
func (t *SupportTable) Each(fn func(Itemset, int)) {
	for k, n := range t.counts {
		fn(k.Itemset(), n)
	}
}

// Merge folds other's entries into t (overwriting duplicates).
func (t *SupportTable) Merge(other *SupportTable) {
	for k, n := range other.counts {
		t.counts[k] = n
	}
}

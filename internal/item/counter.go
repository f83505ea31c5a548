package item

import "sort"

// Counter accumulates support counts for itemsets keyed by their Key. It is
// the simple (non-hash-tree) counting structure; algorithms use it for
// 1-itemsets, for merging per-worker partial counts, and as the reference
// implementation the hash tree is tested against.
type Counter struct {
	counts map[Key]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[Key]int)} }

// Add increments the count of s by delta.
func (c *Counter) Add(s Itemset, delta int) { c.counts[s.Key()] += delta }

// Count returns the accumulated count for s (0 if never added).
func (c *Counter) Count(s Itemset) int { return c.counts[s.Key()] }

// Len returns the number of distinct itemsets with a recorded count.
func (c *Counter) Len() int { return len(c.counts) }

// Merge folds other's counts into c.
func (c *Counter) Merge(other *Counter) {
	for k, n := range other.counts {
		c.counts[k] += n
	}
}

// Each calls fn for every (itemset, count) pair in unspecified order.
func (c *Counter) Each(fn func(Itemset, int)) {
	for k, n := range c.counts {
		fn(k.Itemset(), n)
	}
}

// Sorted returns all (itemset, count) pairs ordered lexicographically by
// itemset — deterministic output for tests and reports.
func (c *Counter) Sorted() []CountedSet {
	out := make([]CountedSet, 0, len(c.counts))
	for k, n := range c.counts {
		out = append(out, CountedSet{Set: k.Itemset(), Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Set.Compare(out[j].Set) < 0 })
	return out
}

// CountedSet pairs an itemset with its support count.
type CountedSet struct {
	Set   Itemset
	Count int
}

// SupportTable is an immutable itemset → support-count lookup built from the
// output of a mining pass. Mining algorithms hand it around instead of the
// mutable Counter.
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

// EachKey calls fn with the key of every recorded itemset, in unspecified
// order, without decoding it.
func (t *SupportTable) EachKey(fn func(Key)) {
	for k := range t.counts {
		fn(k)
	}
}

// Merge folds other's entries into t (overwriting duplicates).
func (t *SupportTable) Merge(other *SupportTable) {
	for k, n := range other.counts {
		t.counts[k] = n
	}
}

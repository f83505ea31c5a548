// Package item provides the foundational types of the mining library: item
// identifiers, sorted itemsets and the set algebra used by every mining
// algorithm (Apriori join/prune, subset enumeration, support counting).
//
// An Itemset is always kept sorted in ascending item order with no
// duplicates; every function in this package preserves that invariant and
// most rely on it for O(n) merges and binary searches.
package item

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item is the identifier of a single item (a leaf product or an internal
// taxonomy category). Ids are dense small integers assigned by a Dictionary
// or a taxonomy builder; negative values are never valid items.
type Item int32

// None is the sentinel "no item" value.
const None Item = -1

// Itemset is a sorted, duplicate-free set of items. The zero value (nil) is
// the empty itemset.
type Itemset []Item

// New builds an Itemset from arbitrary items: it copies, sorts and
// deduplicates the input.
func New(items ...Item) Itemset {
	if len(items) == 0 {
		return nil
	}
	s := make(Itemset, len(items))
	copy(s, items)
	return SortDedup(s)
}

// SortDedup sorts s in place, removes duplicates in place and returns the
// (re-sliced) result as an Itemset. Unlike New it never allocates, which
// makes it the building block for the allocation-free transaction transforms
// used on counting hot paths: callers own a scratch buffer, append raw items
// into it and normalize with SortDedup.
func SortDedup(s []Item) Itemset {
	if len(s) == 0 {
		return s
	}
	slices.Sort(s)
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Len returns the number of items in the set.
func (s Itemset) Len() int { return len(s) }

// Empty reports whether the set has no items.
func (s Itemset) Empty() bool { return len(s) == 0 }

// Clone returns an independent copy of the itemset.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Contains reports whether item x is a member of s (binary search).
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// SubsetOf reports whether every item of s is contained in t. Both sets are
// sorted, so this is a single linear merge.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j >= len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically (shorter prefix first). It
// returns -1, 0 or +1.
func (s Itemset) Compare(t Itemset) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// Union returns the sorted union of s and t as a new itemset.
func (s Itemset) Union(t Itemset) Itemset {
	if len(s) == 0 {
		return t.Clone()
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s \ t: the items of s that are not in t.
func (s Itemset) Minus(t Itemset) Itemset {
	var out Itemset
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Disjoint reports whether s and t share no items.
func (s Itemset) Disjoint(t Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// With returns a new itemset with x inserted (no-op copy if already present).
func (s Itemset) With(x Item) Itemset {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Without returns a new itemset with x removed (copy if absent).
func (s Itemset) Without(x Item) Itemset {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i == len(s) || s[i] != x {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// ReplaceAt returns a new itemset where the item at position i is replaced by
// x (and the result re-sorted). It is the workhorse of negative candidate
// generation, where one member of a large itemset is swapped for a child or
// sibling.
func (s Itemset) ReplaceAt(i int, x Item) Itemset {
	out := make(Itemset, len(s))
	copy(out, s)
	out[i] = x
	// The replacement may collide with an existing member; dedupe.
	return SortDedup(out)
}

// Hash sums Mix over the members: equal sets hash alike, and so do the same
// members in any order, so a set's hash less Mix(x) is the hash of the set
// without x. It is what an Index is keyed by.
func (s Itemset) Hash() uint64 {
	var h uint64
	for _, x := range s {
		h += Mix(uint64(x))
	}
	return h
}

// Mix is SplitMix64's finalizer: a bijection of z whose output bits each
// depend on every input bit.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Index maps itemset hashes to int32 positions in a slice the caller holds,
// open-addressed with linear probing. It stores no sets: a probe yields the
// positions inserted under a hash, and the caller compares members in place.
// It is made by NewIndex for the positions it will hold, and never grows.
type Index struct {
	slots []indexSlot
}

// indexSlot is a position of an Index with its hash; pos is the position + 1
// (0: empty).
type indexSlot struct {
	h   uint64
	pos int32
}

// NewIndex returns an Index with room for n positions, at most half full.
func NewIndex(n int) Index {
	return Index{slots: make([]indexSlot, 2<<bits.Len(uint(n)))}
}

// Insert adds pos under hash h, after the positions already there: at most
// the n positions the Index was made for, so that an empty slot ends every
// probe.
func (x Index) Insert(h uint64, pos int32) {
	mask := uint64(len(x.slots) - 1)
	for at := h; ; at++ {
		if x.slots[at&mask].pos == 0 {
			x.slots[at&mask] = indexSlot{h, pos + 1}
			return
		}
	}
}

// Probe returns the first position inserted under h, or -1, and where the
// probe stands, for Next:
//
//	for i, at := x.Probe(h); i >= 0; i, at = x.Next(h, at) { … }
//
// walks the positions under h in insertion order.
func (x Index) Probe(h uint64) (pos int32, at uint64) { return x.Next(h, h) }

// Next returns the next position under h of a probe standing at at, or -1,
// and where the probe stands after it.
func (x Index) Next(h, at uint64) (pos int32, next uint64) {
	mask := uint64(len(x.slots) - 1)
	for {
		s := x.slots[at&mask]
		if s.pos == 0 {
			return -1, at
		}
		at++
		if s.h == h {
			return s.pos - 1, at
		}
	}
}

// String renders the itemset as "{1 5 9}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(x)))
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the itemset using a name lookup, e.g. "{bread milk}".
func (s Itemset) Format(name func(Item) string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name(x))
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets calls fn for every non-empty proper subset of s that has exactly k
// items. Iteration order is lexicographic. It allocates one scratch buffer
// and reuses it; fn must not retain its argument (Clone it if needed).
func (s Itemset) Subsets(k int, fn func(Itemset)) {
	if k <= 0 || k > len(s) {
		return
	}
	idx := make([]int, k)
	buf := make(Itemset, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			for i, ix := range idx {
				buf[i] = s[ix]
			}
			fn(buf)
			return
		}
		for i := start; i <= len(s)-(k-d); i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// AllSubsets calls fn for every non-empty subset of s, including s itself
// when proper is false. The buffer passed to fn is reused across calls.
func (s Itemset) AllSubsets(proper bool, fn func(Itemset)) {
	max := len(s)
	if proper {
		max--
	}
	for k := 1; k <= max; k++ {
		s.Subsets(k, fn)
	}
}

// Validate checks the sortedness/uniqueness invariant, returning an error
// describing the first violation. It is used by tests and by the txdb loader
// when reading untrusted files.
func (s Itemset) Validate() error {
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("itemset %v: duplicate item %d at position %d", s, s[i], i)
		}
		if s[i] < s[i-1] {
			return fmt.Errorf("itemset %v: out of order at position %d (%d < %d)", s, i, s[i], s[i-1])
		}
	}
	for i, x := range s {
		if x < 0 {
			return fmt.Errorf("itemset %v: negative item id %d at position %d", s, x, i)
		}
	}
	return nil
}

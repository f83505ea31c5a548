package item

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedupes(t *testing.T) {
	cases := []struct {
		in   []Item
		want Itemset
	}{
		{nil, nil},
		{[]Item{}, nil},
		{[]Item{3}, Itemset{3}},
		{[]Item{3, 1, 2}, Itemset{1, 2, 3}},
		{[]Item{5, 5, 5}, Itemset{5}},
		{[]Item{9, 1, 9, 1, 4}, Itemset{1, 4, 9}},
	}
	for _, c := range cases {
		got := New(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("New(%v) = %v, want %v", c.in, got, c.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("New(%v) invalid: %v", c.in, err)
		}
	}
}

func TestNewDoesNotAliasInput(t *testing.T) {
	in := []Item{3, 1, 2}
	s := New(in...)
	in[0] = 99
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Errorf("New aliased its input: %v", s)
	}
}

func TestContainsAndIndexOf(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, x := range []Item{2, 4, 6, 8} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []Item{1, 3, 5, 7, 9, -1} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
	// Without finds a member's position by the same search.
	if got := s.Without(6); !got.Equal(New(2, 4, 8)) {
		t.Errorf("Without(6) = %v, want [2 4 8]", got)
	}
	if got := s.Without(7); !got.Equal(s) {
		t.Errorf("Without(7) = %v, want %v", got, s)
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		s, t Itemset
		want bool
	}{
		{nil, nil, true},
		{nil, New(1, 2), true},
		{New(1), New(1, 2), true},
		{New(2), New(1, 2), true},
		{New(1, 2), New(1, 2), true},
		{New(1, 3), New(1, 2), false},
		{New(1, 2, 3), New(1, 2), false},
		{New(0), New(1, 2), false},
	}
	for _, c := range cases {
		if got := c.s.SubsetOf(c.t); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(1, 3, 5, 7)
	b := New(3, 4, 5, 6)
	if got := a.Union(b); !got.Equal(New(1, 3, 4, 5, 6, 7)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(New(1, 7)) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(New(4, 6)) {
		t.Errorf("Minus = %v", got)
	}
	if a.Disjoint(b) {
		t.Error("Disjoint = true for overlapping sets")
	}
	if !New(1, 2).Disjoint(New(3, 4)) {
		t.Error("Disjoint = false for disjoint sets")
	}
}

func TestWithWithout(t *testing.T) {
	s := New(2, 4)
	if got := s.With(3); !got.Equal(New(2, 3, 4)) {
		t.Errorf("With(3) = %v", got)
	}
	if got := s.With(2); !got.Equal(s) {
		t.Errorf("With(existing) = %v", got)
	}
	if got := s.Without(2); !got.Equal(New(4)) {
		t.Errorf("Without(2) = %v", got)
	}
	if got := s.Without(9); !got.Equal(s) {
		t.Errorf("Without(absent) = %v", got)
	}
	// Original must be untouched.
	if !s.Equal(New(2, 4)) {
		t.Errorf("receiver mutated: %v", s)
	}
}

func TestReplaceAt(t *testing.T) {
	s := New(10, 20, 30)
	if got := s.ReplaceAt(1, 5); !got.Equal(New(5, 10, 30)) {
		t.Errorf("ReplaceAt = %v", got)
	}
	if got := s.ReplaceAt(0, 30); !got.Equal(New(20, 30)) {
		t.Errorf("ReplaceAt collision = %v, want dedup", got)
	}
	if !s.Equal(New(10, 20, 30)) {
		t.Errorf("receiver mutated: %v", s)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{nil, nil, 0},
		{nil, New(1), -1},
		{New(1), nil, 1},
		{New(1, 2), New(1, 2), 0},
		{New(1, 2), New(1, 3), -1},
		{New(1, 3), New(1, 2), 1},
		{New(1), New(1, 2), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSubsets(t *testing.T) {
	s := New(1, 2, 3, 4)
	var got []Itemset
	s.Subsets(2, func(sub Itemset) { got = append(got, sub.Clone()) })
	want := []Itemset{
		New(1, 2), New(1, 3), New(1, 4), New(2, 3), New(2, 4), New(3, 4),
	}
	if len(got) != len(want) {
		t.Fatalf("Subsets(2) produced %d sets, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("Subsets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Degenerate sizes.
	count := 0
	s.Subsets(0, func(Itemset) { count++ })
	s.Subsets(5, func(Itemset) { count++ })
	if count != 0 {
		t.Errorf("degenerate Subsets called fn %d times", count)
	}
}

func TestAllSubsets(t *testing.T) {
	s := New(1, 2, 3)
	count := 0
	s.AllSubsets(true, func(Itemset) { count++ })
	if count != 6 { // 3 singletons + 3 pairs
		t.Errorf("proper AllSubsets = %d, want 6", count)
	}
	count = 0
	s.AllSubsets(false, func(Itemset) { count++ })
	if count != 7 {
		t.Errorf("AllSubsets = %d, want 7", count)
	}
}

func TestValidate(t *testing.T) {
	if err := New(1, 2, 3).Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	bad := []Itemset{
		{2, 1},
		{1, 1},
		{-2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid set", s)
		}
	}
}

func TestString(t *testing.T) {
	if got := New(3, 1).String(); got != "{1 3}" {
		t.Errorf("String = %q", got)
	}
	if got := (Itemset)(nil).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	names := map[Item]string{1: "bread", 3: "milk"}
	got := New(3, 1).Format(func(i Item) string { return names[i] })
	if got != "{bread milk}" {
		t.Errorf("Format = %q", got)
	}
}

// genSet produces a random valid itemset for property tests.
func genSet(r *rand.Rand, maxLen, maxItem int) Itemset {
	n := r.Intn(maxLen + 1)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(r.Intn(maxItem))
	}
	return New(items...)
}

func TestQuickUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := genSet(r, 12, 40), genSet(r, 12, 40)
		u := a.Union(b)
		if err := u.Validate(); err != nil {
			return false
		}
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !u.Equal(b.Union(a)) { // commutative
			return false
		}
		for _, x := range u {
			if !a.Contains(x) && !b.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinusIntersectPartition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := genSet(r, 12, 40), genSet(r, 12, 40)
		// a = (a minus b) ∪ (a ∩ b), and the two parts are disjoint.
		var inter Itemset
		for _, x := range a {
			if b.Contains(x) {
				inter = append(inter, x)
			}
		}
		diff := a.Minus(b)
		if !diff.Disjoint(inter) {
			return false
		}
		return diff.Union(inter).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetsCount(t *testing.T) {
	// Subsets(k) must produce C(n, k) distinct sorted subsets.
	r := rand.New(rand.NewSource(4))
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	f := func() bool {
		s := genSet(r, 8, 100)
		k := r.Intn(len(s) + 1)
		if k == 0 {
			return true
		}
		seen := map[string]bool{}
		ok := true
		s.Subsets(k, func(sub Itemset) {
			if sub.Validate() != nil || !sub.SubsetOf(s) || len(sub) != k {
				ok = false
			}
			seen[sub.String()] = true
		})
		return ok && len(seen) == binom(len(s), k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSortStability(t *testing.T) {
	// Compare must be a total order consistent with sort.
	r := rand.New(rand.NewSource(5))
	sets := make([]Itemset, 50)
	for i := range sets {
		sets[i] = genSet(r, 6, 20)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) < 0 })
	for i := 1; i < len(sets); i++ {
		if sets[i-1].Compare(sets[i]) > 0 {
			t.Fatalf("sort order violated at %d: %v > %v", i, sets[i-1], sets[i])
		}
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	bread := d.Intern("bread")
	milk := d.Intern("milk")
	if bread == milk {
		t.Fatal("distinct names got same id")
	}
	if again := d.Intern("bread"); again != bread {
		t.Errorf("re-Intern changed id: %d vs %d", again, bread)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if got, ok := d.Lookup("milk"); !ok || got != milk {
		t.Errorf("Lookup(milk) = %d,%v", got, ok)
	}
	if _, ok := d.Lookup("beer"); ok {
		t.Error("Lookup(beer) found unknown name")
	}
	if d.Name(bread) != "bread" {
		t.Errorf("Name = %q", d.Name(bread))
	}
	if d.Name(99) != "item99" {
		t.Errorf("Name(unknown) = %q", d.Name(99))
	}
	s := d.InternSet("milk", "beer", "bread")
	if s.Len() != 3 {
		t.Errorf("InternSet len = %d", s.Len())
	}
	var names []string
	for id := 0; id < d.Len(); id++ {
		names = append(names, d.Name(Item(id)))
	}
	if !reflect.DeepEqual(names, []string{"bread", "milk", "beer"}) {
		t.Errorf("names by id = %v", names)
	}
}

func TestSupportTable(t *testing.T) {
	st := NewTable(200)
	a := New(1, 2)
	st.Append([]CountedSet{{New(1), 80}, {New(2), 70}})
	st.Append([]CountedSet{{a, 50}})
	if n, ok := st.Count(a); !ok || n != 50 {
		t.Errorf("Count = %d,%v", n, ok)
	}
	if sup, ok := st.Support(a); !ok || sup != 0.25 {
		t.Errorf("Support = %v,%v", sup, ok)
	}
	for _, absent := range []Itemset{nil, New(9), New(1, 9), New(1, 2, 3)} {
		if _, ok := st.Count(absent); ok {
			t.Errorf("Count(%v) reported ok", absent)
		}
		if sup, ok := st.Support(absent); ok || sup != 0 {
			t.Errorf("Support(%v) = %v,%v", absent, sup, ok)
		}
	}
	if !st.Contains(a) || st.Contains(New(9)) {
		t.Error("Contains wrong")
	}
	if st.Total() != 200 {
		t.Errorf("Total = %d", st.Total())
	}

	// Zero-transaction table must not divide by zero.
	z := NewTable(0)
	z.Append([]CountedSet{{New(1), 0}})
	if sup, ok := z.Support(New(1)); !ok || sup != 0 {
		t.Errorf("zero-total Support = %v,%v", sup, ok)
	}
}

package item

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// setOpCase is one hand-written case of a binary set operation: a op b = want.
type setOpCase struct{ a, b, want Itemset }

type setOp func(a, b Itemset) Itemset

func runSetOp(t *testing.T, name string, op setOp, cases []setOpCase) {
	t.Helper()
	for _, c := range cases {
		if got := op(c.a, c.b); !got.Equal(c.want) || got.Validate() != nil {
			t.Errorf("%s(%v, %v) = %v, want %v", name, c.a, c.b, got, c.want)
		}
	}
}

// TestSetOpTables pins the binary set operations on the corners: empty sides,
// disjoint and nested sets, and ids at both ends of the range.
func TestSetOpTables(t *testing.T) {
	top := Item(math.MaxInt32)
	runSetOp(t, "Union", Itemset.Union, []setOpCase{
		{nil, nil, nil},
		{Itemset{1}, nil, Itemset{1}},
		{nil, Itemset{1}, Itemset{1}},
		{Itemset{1, 2, 3}, Itemset{4, 5, 6}, Itemset{1, 2, 3, 4, 5, 6}},
		{Itemset{1}, Itemset{1, 2}, Itemset{1, 2}},
		{Itemset{0, top}, Itemset{1, top - 1}, Itemset{0, 1, top - 1, top}},
	})
	runSetOp(t, "Minus", Itemset.Minus, []setOpCase{
		{nil, Itemset{1}, nil},
		{Itemset{1, 2}, nil, Itemset{1, 2}},
		{Itemset{1, 2, 3}, Itemset{2}, Itemset{1, 3}},
		{Itemset{1, 2, 3}, Itemset{0, 1, 2, 3, 4}, nil},
		{Itemset{0, top}, Itemset{0}, Itemset{top}},
	})
}

// model is a set as a map, the reference the sorted-slice algebra is held to.
type model map[Item]bool

func modelOf(s Itemset) model {
	m := model{}
	for _, x := range s {
		m[x] = true
	}
	return m
}

// set returns the model's members sorted: the one Itemset it stands for.
func (m model) set() Itemset {
	var out Itemset
	for x := range m {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// draw returns up to n raw ids, duplicates and all, from a range near 0 or
// near 2³¹, so that both ends of an Item and long shared prefixes come up.
func draw(r *rand.Rand, n int) []Item {
	base := Item(0)
	if r.Intn(2) == 0 {
		base = math.MaxInt32 - 40
	}
	raw := make([]Item, r.Intn(n+1))
	for i := range raw {
		raw[i] = base + Item(r.Intn(41))
	}
	return raw
}

// TestItemsetAgainstMapModel: SortDedup, With, Minus, SubsetOf, Equal and Hash
// agree with a map model of the set, on random sets over ids near 0 and near
// 2³¹, and none of them writes to its receiver or argument.
func TestItemsetAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		rawA := draw(r, 12)
		ma := modelOf(rawA)
		a := SortDedup(slices.Clone(rawA))
		if !a.Equal(ma.set()) || a.Validate() != nil {
			t.Fatalf("SortDedup(%v) = %v, want %v", rawA, a, ma.set())
		}
		b := SortDedup(draw(r, 12))
		mb := modelOf(b)
		keepA, keepB := a.Clone(), b.Clone()

		x := Item(r.Intn(41))
		if len(a) > 0 && r.Intn(2) == 0 {
			x = a[r.Intn(len(a))] // already a member
		}
		with := modelOf(a)
		with[x] = true
		if got := a.With(x); !got.Equal(with.set()) || got.Validate() != nil {
			t.Fatalf("%v.With(%d) = %v, want %v", a, x, got, with.set())
		}

		minus := model{}
		for y := range ma {
			if !mb[y] {
				minus[y] = true
			}
		}
		if got := a.Minus(b); !got.Equal(minus.set()) || got.Validate() != nil {
			t.Fatalf("%v.Minus(%v) = %v, want %v", a, b, got, minus.set())
		}

		subset := true
		for y := range ma {
			subset = subset && mb[y]
		}
		if got := a.SubsetOf(b); got != subset {
			t.Fatalf("%v.SubsetOf(%v) = %v, want %v", a, b, got, subset)
		}
		if sub := minus.set(); !sub.SubsetOf(a) {
			t.Fatalf("%v is not a subset of %v", sub, a)
		}

		same := len(ma) == len(mb) && subset
		if a.Equal(b) != same || same && a.Hash() != b.Hash() {
			t.Fatalf("%v and %v: Equal %v, hashes %x %x, want equal %v", a, b, a.Equal(b), a.Hash(), b.Hash(), same)
		}
		if !ma[x] && a.With(x).Hash() != a.Hash()+Mix(uint64(x)) {
			t.Fatalf("Hash(%v ∪ {%d}) is not Hash(%v) + Mix(%d)", a, x, a, x)
		}

		if !a.Equal(keepA) || !b.Equal(keepB) {
			t.Fatalf("an operation wrote to its operands: %v, %v; were %v, %v", a, b, keepA, keepB)
		}
	}
}

// TestSupportTableAgainstMapModel: a table built level by level from random
// distinct sets, over 0, 1 and 1 000 transactions, answers Count, Support,
// Contains and Total as a map of the levels appended so far says — empty
// before the first Append, and read after each one, as a Stepper's result is
// read between levels — for every set stored or still to come, for random
// sets, and for each stored set with one member swapped for another.
func TestSupportTableAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, total := range []int{0, 1, 1000} {
		var levels [][]CountedSet
		var probes []Itemset
		for k := 1; k <= 4; k++ {
			var lvl []CountedSet
			seen := map[string]bool{}
			for len(lvl) < 40 { // of at most 82 distinct 1-sets
				s := SortDedup(draw(r, 2*k))
				if len(s) != k || seen[s.String()] {
					continue
				}
				seen[s.String()] = true
				lvl = append(lvl, CountedSet{s, r.Intn(total + 1)})
				probes = append(probes, s)
				y := s[0] ^ Item(1+r.Intn(7)) // near s's members, maybe one of them
				if i := r.Intn(k); !s.Contains(y) {
					probes = append(probes, s.ReplaceAt(i, y))
				}
			}
			levels = append(levels, lvl)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, SortDedup(draw(r, 6)))
		}

		st, counts := NewTable(total), map[string]int{}
		for appended := 0; ; appended++ {
			if st.Total() != total {
				t.Fatalf("total %d, %d levels: Total %d", total, appended, st.Total())
			}
			for _, s := range probes {
				want, known := counts[s.String()]
				wantSup := 0.0
				if known && total > 0 {
					wantSup = float64(want) / float64(total)
				}
				n, ok := st.Count(s)
				sup, okSup := st.Support(s)
				if ok != known || n != want || st.Contains(s) != known || okSup != known || sup != wantSup {
					t.Fatalf("total %d, %d levels, %v: Count %d %v, Support %v %v, Contains %v; want %d, %v, %v",
						total, appended, s, n, ok, sup, okSup, st.Contains(s), want, known, wantSup)
				}
			}
			if appended == len(levels) {
				break
			}
			st.Append(levels[appended])
			for _, cs := range levels[appended] {
				counts[cs.Set.String()] = cs.Count
			}
		}
	}
}

// TestIndexProbesByMembers: positions inserted under one hash — a collision,
// which no two sets of a real 64-bit Hash could be found to make — come back
// from a probe in insertion order, among them exactly those inserted under
// that hash, so the caller's member compare picks the right one.
func TestIndexProbesByMembers(t *testing.T) {
	sets := []Itemset{{1, 2}, {3}, {1, 3}, {7, 8, 9}, {2}, {4, 5}}
	const h = 42 // every set but {3} and {2}, on purpose
	ix := NewIndex(len(sets))
	for i, s := range sets {
		hash := uint64(h)
		if len(s) == 1 {
			hash = s.Hash()
		}
		ix.Insert(hash, int32(i))
	}
	find := func(hash uint64, want Itemset) int32 {
		for i, at := ix.Probe(hash); i >= 0; i, at = ix.Next(hash, at) {
			if sets[i].Equal(want) {
				return i
			}
		}
		return -1
	}
	for i, s := range sets {
		hash := uint64(h)
		if len(s) == 1 {
			hash = s.Hash()
		}
		if got := find(hash, s); got != int32(i) {
			t.Errorf("%v under %#x: position %d, want %d", s, hash, got, i)
		}
	}
	if got := find(h, Itemset{1, 4}); got != -1 {
		t.Errorf("{1 4}, never inserted, found at %d", got)
	}
	if got := find(Itemset{3}.Hash(), Itemset{1, 2}); got != -1 {
		t.Errorf("{1 2} found under {3}'s hash at %d", got)
	}
	var under []int32
	for i, at := ix.Probe(h); i >= 0; i, at = ix.Next(h, at) {
		under = append(under, i)
	}
	if !slices.Equal(under, []int32{0, 2, 3, 5}) {
		t.Errorf("probe of %#x yields %v, want [0 2 3 5]", h, under)
	}
	if i, _ := NewIndex(0).Probe(h); i != -1 {
		t.Error("an empty index yields a position")
	}
}

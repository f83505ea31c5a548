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
	runSetOp(t, "Intersect", Itemset.Intersect, []setOpCase{
		{Itemset{1}, nil, nil},
		{nil, Itemset{1}, nil},
		{Itemset{1, 2, 3}, Itemset{4, 5, 6}, nil},
		{Itemset{1, 2, 3}, Itemset{0, 1, 2, 4, 5, 6}, Itemset{1, 2}},
		{Itemset{0, top}, Itemset{top}, Itemset{top}},
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

// TestItemsetAgainstMapModel: SortDedup, With, Minus, SubsetOf, Equal, Hash and
// the AppendKey ↔ Key.Itemset round trip agree with a map model of the set, on
// random sets over ids near 0 and near 2³¹, and none of them writes to its
// receiver or argument.
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

		key := a.AppendKey([]byte("prefix"))[len("prefix"):]
		if back := Key(key).Itemset(); !back.Equal(a) || Key(key) != a.Key() || Key(key).Len() != len(a) {
			t.Fatalf("%v: key %q decodes to %v", a, key, back)
		}

		if !a.Equal(keepA) || !b.Equal(keepB) {
			t.Fatalf("an operation wrote to its operands: %v, %v; were %v, %v", a, b, keepA, keepB)
		}
	}
}

// TestSupportTableAgainstMapModel: after random Puts — new sets and
// overwrites, over 0, 1 and 1 000 transactions — Count, Support, SupportBytes,
// Contains and Len answer what a map[string]int of the same Puts says, for the
// sets put and for sets never put.
func TestSupportTableAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, total := range []int{0, 1, 1000} {
		st, counts := NewSupportTable(total), map[string]int{}
		var sets []Itemset
		for i := 0; i < 400; i++ {
			s := SortDedup(draw(r, 5))
			if len(sets) > 0 && r.Intn(4) == 0 {
				s = sets[r.Intn(len(sets))] // overwrite
			}
			c := r.Intn(total + 1)
			st.Put(s, c)
			counts[s.String()] = c
			sets = append(sets, s)
		}
		for i := 0; i < 200; i++ {
			sets = append(sets, SortDedup(draw(r, 5)))
		}
		if st.Len() != len(counts) || st.Total() != total {
			t.Fatalf("total %d: Len %d, Total %d; want %d, %d", total, st.Len(), st.Total(), len(counts), total)
		}
		var buf []byte
		for _, s := range sets {
			want, known := counts[s.String()]
			wantSup := 0.0
			if known && total > 0 {
				wantSup = float64(want) / float64(total)
			}
			buf = s.AppendKey(buf[:0])
			n, ok := st.Count(s)
			sup, okSup := st.Support(s)
			supB, okB := st.SupportBytes(buf)
			if ok != known || n != want && known || st.Contains(s) != known ||
				okSup != known || sup != wantSup || okB != known || supB != wantSup {
				t.Fatalf("total %d, %v: Count %d %v, Support %v %v, SupportBytes %v %v, Contains %v; want %d, %v, %v",
					total, s, n, ok, sup, okSup, supB, okB, st.Contains(s), want, known, wantSup)
			}
		}
	}
}

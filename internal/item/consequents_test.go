package item_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/item"
)

// TestConsequentsWalk: for every k ≤ 10, under random keep predicates, a walk
// over a k-itemset offers each proper, non-empty mask at most once, level by
// level, and a j-mask exactly when every (j−1)-sub-mask of it was offered and
// kept; each level's consequents are the ones apriori.Gen makes from the kept
// consequents of the level below; and each offer carries the table's counts
// for the consequent and for the antecedent, or -1 where the table holds
// none.
func TestConsequentsWalk(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	var walk item.Consequents // reused across sets, as the generators do
	for k := 0; k <= 10; k++ {
		for trial := 0; trial < 30; trial++ {
			// s is k distinct ids; the table holds each non-empty subset of
			// s with probability 0.8, at a random count.
			var s item.Itemset
			for len(s) < k {
				s = item.New(append(s, item.Item(r.Intn(1<<20)))...)
			}
			full := uint64(1)<<k - 1
			pick := func(m uint64) item.Itemset {
				var out item.Itemset
				for i := range s {
					if m&(1<<i) != 0 {
						out = append(out, s[i])
					}
				}
				return out
			}
			counts := make([]int, full+1) // -1: not in the table
			levels := make([][]item.CountedSet, k)
			for m := uint64(1); m <= full; m++ {
				counts[m] = -1
				if r.Float64() < 0.8 {
					counts[m] = r.Intn(1000)
					j := bits.OnesCount64(m)
					levels[j-1] = append(levels[j-1], item.CountedSet{Set: pick(m), Count: counts[m]})
				}
			}
			table := item.NewTable(1000)
			for _, lvl := range levels {
				table.Append(lvl)
			}

			keepP := r.Float64()
			kept := make([]bool, full+1)
			offered := make([]bool, full+1)
			lastLevel := 0
			walk.Walk(table, s, func(cons uint64, consCount, anteCount int) bool {
				j := bits.OnesCount64(cons)
				switch {
				case cons == 0 || cons >= full:
					t.Fatalf("k=%d: offered %b, not a proper non-empty mask", k, cons)
				case offered[cons]:
					t.Fatalf("k=%d: offered %b twice", k, cons)
				case j < lastLevel:
					t.Fatalf("k=%d: offered %b after a %d-mask", k, cons, lastLevel)
				case consCount != counts[cons] || anteCount != counts[full&^cons]:
					t.Fatalf("k=%d, %b: counts %d, %d; want %d, %d", k, cons, consCount, anteCount, counts[cons], counts[full&^cons])
				}
				offered[cons], lastLevel = true, j
				kept[cons] = r.Float64() < keepP
				return kept[cons]
			})

			// Offered iff every (j−1)-sub-mask was kept (1-masks always).
			for m := uint64(1); m < full; m++ {
				want := true
				if bits.OnesCount64(m) > 1 {
					for rest := m; rest != 0; rest &= rest - 1 {
						want = want && kept[m&^(rest&-rest)]
					}
				}
				if offered[m] != want {
					t.Fatalf("k=%d, keep %.2f: %b offered %v, want %v", k, keepP, m, offered[m], want)
				}
			}
			// Level by level, the offered consequents are apriori.Gen of the
			// kept ones below.
			for j := 2; j < k; j++ {
				var below, got []item.Itemset
				for m := uint64(1); m < full; m++ {
					switch bits.OnesCount64(m) {
					case j - 1:
						if kept[m] {
							below = append(below, pick(m))
						}
					case j:
						if offered[m] {
							got = append(got, pick(m))
						}
					}
				}
				slices.SortFunc(below, item.Itemset.Compare)
				slices.SortFunc(got, item.Itemset.Compare)
				if want := apriori.Gen(below); !slices.EqualFunc(got, want, item.Itemset.Equal) {
					t.Fatalf("k=%d, level %d: offered %v, apriori.Gen of the kept %v", k, j, got, want)
				}
			}
		}
	}
}

// TestConsequentsWalkCapsAt63: a mask holds 63 members and a 1-mask more, so
// a walk over 64 members panics rather than wrap.
func TestConsequentsWalkCapsAt63(t *testing.T) {
	s := make(item.Itemset, 64)
	for i := range s {
		s[i] = item.Item(i)
	}
	var walk item.Consequents
	offers := 0
	walk.Walk(item.NewTable(1), s[:63], func(uint64, int, int) bool { offers++; return false })
	if offers != 63 {
		t.Fatalf("63 members, nothing kept: %d offers, want 63", offers)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a walk over 64 members did not panic")
		}
	}()
	walk.Walk(item.NewTable(1), s, func(uint64, int, int) bool { return false })
}

// TestSlabPick: a pick is the masked members in order, and sets carved from
// one chunk do not share a tail: appending to one leaves the next alone.
func TestSlabPick(t *testing.T) {
	var slab item.Slab
	s := item.New(3, 5, 8, 13)
	a, b := slab.Pick(s, 0b1010), slab.Pick(s, 0b0101)
	if !a.Equal(item.New(5, 13)) || !b.Equal(item.New(3, 8)) {
		t.Fatalf("picks %v, %v; want {5 13}, {3 8}", a, b)
	}
	_ = append(a, 99)
	if !b.Equal(item.New(3, 8)) {
		t.Fatalf("appending to one pick overwrote the next: %v", b)
	}
}

// TestSortBySides: on random rules with unique (antecedent, consequent)
// pairs, including permutations made of many cycles and of one, the
// permutation sort leaves the rules exactly as sorting them by value does.
func TestSortBySides(t *testing.T) {
	type rule struct {
		ante, cons item.Itemset
		tag        int
	}
	sides := func(r *rule) (item.Itemset, item.Itemset) { return r.ante, r.cons }
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 500} {
		seen := map[[2]item.Item]bool{}
		var rules []rule
		for len(rules) < n {
			a, c := item.Item(rng.Intn(40)), item.Item(40+rng.Intn(40))
			if !seen[[2]item.Item{a, c}] {
				seen[[2]item.Item{a, c}] = true
				rules = append(rules, rule{item.New(a), item.New(c), len(rules)})
			}
		}
		want := slices.Clone(rules)
		slices.SortFunc(want, func(x, y rule) int {
			if c := x.ante.Compare(y.ante); c != 0 {
				return c
			}
			return x.cons.Compare(y.cons)
		})
		for _, in := range [][]rule{rules, slices.Clone(want)} {
			got := slices.Clone(in)
			slices.Reverse(got) // reversed: cycles of two; random: cycles of any length
			item.SortBySides(got, sides)
			if !slices.EqualFunc(got, want, func(x, y rule) bool { return x.tag == y.tag }) {
				t.Fatalf("n=%d: SortBySides disagrees with a sort by value", n)
			}
		}
	}
}

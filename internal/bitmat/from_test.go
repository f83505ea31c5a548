package bitmat

import (
	"math/rand"
	"slices"
	"testing"

	"negmine/internal/item"
)

// fromFixture is a 203-transaction matrix (not a multiple of 64) over ten
// items, and a second matrix over the same rows as their owner might keep
// them: grown ahead by a few words, all-ones, which a matrix over 203
// transactions must never read.
func fromFixture(t *testing.T) (filled, kept *Matrix, universe item.Itemset) {
	t.Helper()
	const n = 203
	rng := rand.New(rand.NewSource(11))
	universe = item.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	filled, err := fromDB(randomDB(t, rng, n, len(universe), 0.6), nil, universe, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]uint64, len(universe))
	for i, x := range universe {
		rows[i] = append(slices.Clone(filled.Row(x)), ^uint64(0), ^uint64(0), ^uint64(0))
	}
	return filled, OverRows(universe, rows, n), universe
}

// TestSupportFromCountsTheTail: the support over positions from…N-1 is the
// full support of the same rows with their first from positions cleared, for
// every k from 0 to 5 and every from around a word boundary and at both ends.
func TestSupportFromCountsTheTail(t *testing.T) {
	filled, kept, universe := fromFixture(t)
	n := filled.N()
	if kept.N() != n || kept.Words() != filled.Words() || kept.Bytes() != filled.Bytes() {
		t.Fatalf("OverRows: N %d, %d words, %d bytes; want %d, %d, %d", kept.N(), kept.Words(), kept.Bytes(), n, filled.Words(), filled.Bytes())
	}
	rng := rand.New(rand.NewSource(12))
	for _, from := range []int{0, 1, 63, 64, 65, n - 1, n} {
		cleared := New(universe, n)
		for _, x := range universe {
			for p := NextSet(filled.Row(x), from); p >= 0; p = NextSet(filled.Row(x), p+1) {
				cleared.Set(x, p)
			}
		}
		for k := 0; k <= 5; k++ {
			for trial := 0; trial < 20; trial++ {
				perm := rng.Perm(len(universe))[:k]
				c := make(item.Itemset, k)
				for i, j := range perm {
					c[i] = universe[j]
				}
				c = item.New(c...)
				want, err := cleared.Support(c, nil)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					want = n - from // Support({}) is N, which clearing bits does not lower
				}
				for name, m := range map[string]*Matrix{"filled": filled, "kept rows": kept} {
					if got, err := m.SupportFrom(c, from); err != nil || got != want {
						t.Fatalf("%s: SupportFrom(%v, %d) = %d, %v; want %d", name, c, from, got, err, want)
					}
				}
			}
		}
	}
	for k := 1; k <= 5; k++ {
		want, _ := filled.Support(universe[:k], nil)
		if got, err := kept.Support(universe[:k], nil); err != nil || got != want {
			t.Fatalf("Support(%v) over kept rows = %d, %v; want %d (it read their spare words?)", universe[:k], got, err, want)
		}
	}
	if got, err := kept.SupportFrom(universe[:2], n+500); err != nil || got != 0 {
		t.Fatalf("SupportFrom past the end = %d, %v", got, err)
	}
	if _, err := kept.SupportFrom(item.New(1, 77), 64); err == nil {
		t.Fatal("SupportFrom: no error for an item without a row")
	}
}

// keptPairs returns a matrix over m's rows that carries a triangular pair
// table, as a caller that keeps rows and table would hand it over: the rows'
// slots are a shuffle of their numbers.
func keptPairs(rng *rand.Rand, m *Matrix) *Matrix {
	n := len(m.Items())
	rows := make([][]uint64, n)
	slots := make([]int32, n)
	for r, x := range m.Items() {
		rows[r] = m.Row(x)
	}
	for r, s := range rng.Perm(n) {
		slots[r] = int32(s)
	}
	tri := make([]int32, n*(n-1)/2)
	for a := range rows {
		for b := range a {
			tri[TriCell(slots[a], slots[b])] = int32(AndPopCount(rows[a], rows[b]))
		}
	}
	kept := OverRows(m.Items(), rows, m.N())
	kept.ReadPairs(tri, slots)
	return kept
}

// TestCountsFromMatchesCounts: handing the counting loop what a prefix of the
// rows already said — for some candidates, not for others — changes nothing in
// what it returns, on one worker, on two, and on more workers than
// candidates, whether or not the matrix carries a pair table, counted by the
// fill or kept by its caller. A table answers every 2-itemset whatever prev
// says, so prev is garbage for those.
func TestCountsFromMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := item.New(0, 1, 2, 3, 4, 5, 6, 7)
	db := randomDB(t, rng, 330, len(universe), 0.5)
	cands := randomCandidates(rng, universe, 41)
	for _, table := range []string{"none", "filled", "kept"} {
		whole := New(universe, db.Count())
		if table == "filled" {
			whole.CountPairs()
		}
		if err := whole.FillWindows(db, nil, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		if table == "kept" {
			whole = keptPairs(rng, whole)
			var last item.Itemset
			whole.PairCounts(func(a, b item.Item, n int) {
				if c := item.New(a, b); c.Compare(last) <= 0 || a > b || n != AndPopCount(whole.Row(a), whole.Row(b)) {
					t.Fatalf("kept table: PairCounts gave %v = %d after %v", c, n, last)
				}
				last = item.Itemset{a, b}
			})
		}
		if whole.HasPairs() != (table != "none") {
			t.Fatalf("pair table %s: HasPairs %v", table, whole.HasPairs())
		}
		for _, from := range []int{0, 64, 127, 200, 330} {
			// The first from transactions, as their own matrix, give prev.
			prefix := New(universe, from)
			for _, x := range universe {
				for p := NextSet(whole.Row(x), 0); p >= 0 && p < from; p = NextSet(whole.Row(x), p+1) {
					prefix.Set(x, p)
				}
			}
			prev := make([]int32, len(cands))
			for i, c := range cands {
				prev[i] = -1
				if i%3 != 0 {
					n, err := prefix.Support(c, nil)
					if err != nil {
						t.Fatal(err)
					}
					prev[i] = int32(n)
				}
				if len(c) == 2 && whole.HasPairs() {
					prev[i] = 1 << 20
				}
			}
			for _, workers := range []int{1, 2, len(cands) + 5} {
				want, err := whole.Counts(cands, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := whole.CountsFrom(cands, prev, from, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("pair table %s, from %d, %d workers: with previous counts %v, without %v", table, from, workers, got, want)
				}
				for i, c := range cands {
					if brute := bruteSupport(t, db, c, nil); want[i] != brute {
						t.Fatalf("%v: Counts %d, brute force %d", c, want[i], brute)
					}
				}
			}
		}
		if got, err := whole.CountsFrom(nil, nil, 9, 4); err != nil || len(got) != 0 {
			t.Fatalf("CountsFrom(no candidates) = %v, %v", got, err)
		}
		bad := append(slices.Clone(cands), item.New(1, 2, 99))
		for _, workers := range []int{1, 3} {
			if _, err := whole.CountsFrom(bad, make([]int32, len(bad)), 64, workers); err == nil {
				t.Fatalf("%d workers: no error for a candidate without rows", workers)
			}
		}
	}
}

// TestCountsSharePrefixes: the prefix ANDs each worker keeps change no count.
// Counts and CountsFrom equal Support candidate by candidate on lists sorted
// by set, sorted by (size, set), unsorted and with every set repeated, of
// sizes 0 to 6; with and without a pair table; with a prev that carries every
// third candidate; on one worker and on four.
func TestCountsSharePrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	universe := item.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	db := randomDB(t, rng, 517, len(universe), 0.7)
	drawn := make([]item.Itemset, 400)
	for i := range drawn {
		drawn[i] = item.New(universe[:rng.Intn(4)]...) // shared prefixes
		for k := rng.Intn(5); k > 0; k-- {
			drawn[i] = drawn[i].With(universe[rng.Intn(len(universe))])
		}
	}
	bySet := slices.Clone(drawn)
	slices.SortFunc(bySet, item.Itemset.Compare)
	bySize := slices.Clone(bySet)
	slices.SortStableFunc(bySize, func(a, b item.Itemset) int { return len(a) - len(b) })
	var twice []item.Itemset
	for _, c := range bySet {
		twice = append(twice, c, c)
	}
	lists := map[string][]item.Itemset{"unsorted": drawn, "by set": bySet, "by size": bySize, "repeated": twice}
	for _, table := range []bool{false, true} {
		m := New(universe, db.Count())
		if table {
			m.CountPairs()
		}
		if err := m.FillWindows(db, nil, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		for name, cands := range lists {
			want := make([]int, len(cands))
			prev := make([]int32, len(cands))
			for i, c := range cands {
				var err error
				if want[i], err = m.Support(c, nil); err != nil {
					t.Fatal(err)
				}
				tail, err := m.SupportFrom(c, 64)
				if err != nil {
					t.Fatal(err)
				}
				if prev[i] = int32(want[i] - tail); i%3 != 0 {
					prev[i] = -1
				}
			}
			for _, workers := range []int{1, 4} {
				got, err := m.Counts(cands, workers)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("table %v, %s, %d workers: Counts %v, %v; Support %v", table, name, workers, got, err, want)
				}
				if got, err = m.CountsFrom(cands, prev, 64, workers); err != nil || !slices.Equal(got, want) {
					t.Fatalf("table %v, %s, %d workers: CountsFrom %v, %v; Support %v", table, name, workers, got, err, want)
				}
			}
		}
	}
}

// TestCountsAllocs pins the counting pass's allocations to its workers: ten
// times the candidates of the same sizes cost no more allocations, on one
// worker or four.
func TestCountsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(19))
	universe := item.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	m, err := fromDB(randomDB(t, rng, 1000, len(universe), 0.5), nil, universe, nil)
	if err != nil {
		t.Fatal(err)
	}
	var few, many []item.Itemset
	universe.AllSubsets(false, func(s item.Itemset) {
		if len(s) <= 5 {
			many = append(many, s.Clone())
		}
	})
	for i := 0; i < len(many); i += 10 {
		few = append(few, many[i])
	}
	few = append(few, many[len(many)-1]) // as long as the longest of many
	for _, workers := range []int{1, 4} {
		a := testing.AllocsPerRun(5, func() { m.Counts(few, workers) })
		b := testing.AllocsPerRun(5, func() { m.Counts(many, workers) })
		if b > a || b > float64(4+6*workers) {
			t.Fatalf("%d workers: %v allocs for %d candidates, %v for %d; want no more, at most %d", workers, b, len(many), a, len(few), 4+6*workers)
		}
	}
}

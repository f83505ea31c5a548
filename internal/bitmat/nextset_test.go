package bitmat

import (
	"math/rand"
	"sort"
	"testing"

	"negmine/internal/item"
)

func TestSetMarksPositions(t *testing.T) {
	m := New(item.New(1, 2, 3), 130)
	if !m.Set(1, 0) || !m.Set(1, 63) || !m.Set(1, 64) || !m.Set(2, 129) {
		t.Fatal("Set on items with rows returned false")
	}
	if m.Set(9, 5) {
		t.Fatal("Set on an item without a row returned true")
	}
	if got := PopCount(m.Row(1)); got != 3 {
		t.Fatalf("row 1 popcount = %d, want 3", got)
	}
	if got := PopCount(m.Row(3)); got != 0 {
		t.Fatalf("untouched row popcount = %d, want 0", got)
	}
	var set []int
	for i := NextSet(m.Row(1), 0); i >= 0; i = NextSet(m.Row(1), i+1) {
		set = append(set, i)
	}
	if want := []int{0, 63, 64}; !equalInts(set, want) {
		t.Fatalf("row 1 positions = %v, want %v", set, want)
	}
}

// TestSetAllEqualsSet: marking a posting list in one call leaves the row
// exactly as marking its positions one by one does.
func TestSetAllEqualsSet(t *testing.T) {
	posts := []uint32{0, 1, 63, 64, 100, 129}
	one, all := New(item.New(1, 2), 130), New(item.New(1, 2), 130)
	for _, p := range posts {
		one.Set(2, int(p))
	}
	if !all.SetAll(2, posts) || all.SetAll(9, posts) {
		t.Fatal("SetAll must report whether the item has a row")
	}
	for _, x := range []item.Item{1, 2} {
		for w := range one.Row(x) {
			if one.Row(x)[w] != all.Row(x)[w] {
				t.Fatalf("item %d word %d: Set %x, SetAll %x", x, w, one.Row(x)[w], all.Row(x)[w])
			}
		}
	}
}

func TestNextSetEdgeCases(t *testing.T) {
	if got := NextSet(nil, 0); got != -1 {
		t.Fatalf("NextSet(nil) = %d", got)
	}
	row := []uint64{0, 1 << 5}
	if got := NextSet(row, -7); got != 69 {
		t.Fatalf("NextSet(negative from) = %d, want 69", got)
	}
	if got := NextSet(row, 69); got != 69 {
		t.Fatalf("NextSet(from == bit) = %d, want 69", got)
	}
	if got := NextSet(row, 70); got != -1 {
		t.Fatalf("NextSet(past last bit) = %d, want -1", got)
	}
	if got := NextSet(row, 4096); got != -1 {
		t.Fatalf("NextSet(from beyond row) = %d, want -1", got)
	}
}

func TestNextSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		row := make([]uint64, (n+63)/64)
		var want []int
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.1 {
				row[i>>6] |= 1 << uint(i&63)
				want = append(want, i)
			}
		}
		var got []int
		for i := NextSet(row, 0); i >= 0; i = NextSet(row, i+1) {
			got = append(got, i)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d: NextSet walk = %v, want %v", trial, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("trial %d: walk not ascending: %v", trial, got)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

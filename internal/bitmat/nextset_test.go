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

// TestSetAllEqualsSet: marking a posting list in one call — since the index
// keeps its lists as gaps, SetGaps of the list AppendGap built — leaves the
// row exactly as marking its positions one by one does, in a matrix of its own
// rows and in one over rows its caller keeps.
func TestSetAllEqualsSet(t *testing.T) {
	posts := []uint32{0, 1, 63, 64, 100, 129}
	one, all := New(item.New(1, 2), 130), New(item.New(1, 2), 130)
	kept := OverRows(item.New(1, 2), [][]uint64{make([]uint64, 5), make([]uint64, 3)}, 130)
	var gaps []byte
	next := 0
	for _, p := range posts {
		one.Set(2, int(p))
		gaps, next = AppendGap(gaps, next, int(p)), int(p)+1
	}
	if len(gaps) != len(posts) {
		t.Fatalf("%d positions under 128 apart took %d bytes", len(posts), len(gaps))
	}
	for _, m := range []*Matrix{all, kept} {
		if !m.SetGaps(2, gaps) || m.SetGaps(9, gaps) || !m.SetGaps(1, nil) {
			t.Fatal("SetGaps must report whether the item has a row")
		}
		for _, x := range []item.Item{1, 2} {
			for w := range one.Row(x) {
				if one.Row(x)[w] != m.Row(x)[w] {
					t.Fatalf("item %d word %d: Set %x, SetGaps %x", x, w, one.Row(x)[w], m.Row(x)[w])
				}
			}
		}
	}
	// Gaps of 128 and more take a second byte, 16384 and more a third.
	far := AppendGap(AppendGap(AppendGap(nil, 0, 127), 128, 256), 257, 257+16384)
	wide := New(item.New(7), 20000)
	if len(far) != 1+2+3 || !wide.SetGaps(7, far) || PopCount(wide.Row(7)) != 3 || NextSet(wide.Row(7), 257) != 257+16384 {
		t.Fatalf("gap list % x decoded to %d positions", far, PopCount(wide.Row(7)))
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

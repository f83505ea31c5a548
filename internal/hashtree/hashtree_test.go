package hashtree

import (
	"math/rand"
	"testing"

	"negmine/internal/item"
)

func TestEmptyTree(t *testing.T) {
	tr, err := Build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.cands) != 0 || tr.k != 0 {
		t.Errorf("cands/k = %d/%d", len(tr.cands), tr.k)
	}
	c := tr.NewCounter()
	c.Add(item.New(1, 2, 3)) // must not panic
}

func TestBuildRejectsMixedSizes(t *testing.T) {
	_, err := Build([]item.Itemset{item.New(1, 2), item.New(3)}, 0)
	if err == nil {
		t.Fatal("mixed candidate sizes accepted")
	}
	_, err = Build([]item.Itemset{{}}, 0)
	if err == nil {
		t.Fatal("empty candidate accepted")
	}
}

func TestCountSimple(t *testing.T) {
	cands := []item.Itemset{
		item.New(1, 2),
		item.New(1, 3),
		item.New(2, 3),
		item.New(4, 5),
	}
	tr, err := Build(cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.NewCounter()
	c.Add(item.New(1, 2, 3)) // contains {1,2},{1,3},{2,3}
	c.Add(item.New(1, 2))    // contains {1,2}
	c.Add(item.New(4))       // too short for k=2
	c.Add(item.New(4, 5, 9)) // contains {4,5}
	want := []int{2, 1, 1, 1}
	for i, w := range want {
		if got := c.Counts()[i]; got != w {
			t.Errorf("Count(%v) = %d, want %d", cands[i], got, w)
		}
	}
}

func TestNoDoubleCountAcrossPaths(t *testing.T) {
	// Force tiny leaves so the tree splits heavily; a candidate reachable
	// via several hash paths in one transaction must still count once.
	var cands []item.Itemset
	for a := item.Item(0); a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			cands = append(cands, item.New(a, b))
		}
	}
	tr, err := Build(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.NewCounter()
	tx := item.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	c.Add(tx)
	for i := range cands {
		if got := c.Counts()[i]; got != 1 {
			t.Fatalf("candidate %v counted %d times", cands[i], got)
		}
	}
}

// referenceCount is the trivially correct counting implementation the tree
// is validated against.
func referenceCount(cands []item.Itemset, txs []item.Itemset) []int {
	out := make([]int, len(cands))
	for _, tx := range txs {
		for i, c := range cands {
			if c.SubsetOf(tx) {
				out[i]++
			}
		}
	}
	return out
}

func TestRandomAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		k := 1 + r.Intn(4)
		nItems := 30
		seen := map[string]bool{}
		target := 60
		if target > nItems && k == 1 {
			target = nItems - 5 // only nItems distinct 1-itemsets exist
		}
		var cands []item.Itemset
		for len(cands) < target {
			raw := make([]item.Item, k)
			for j := range raw {
				raw[j] = item.Item(r.Intn(nItems))
			}
			c := item.New(raw...)
			if c.Len() != k || seen[c.String()] {
				continue
			}
			seen[c.String()] = true
			cands = append(cands, c)
		}
		var txs []item.Itemset
		for i := 0; i < 150; i++ {
			n := r.Intn(10)
			raw := make([]item.Item, n)
			for j := range raw {
				raw[j] = item.Item(r.Intn(nItems))
			}
			txs = append(txs, item.New(raw...))
		}
		maxLeaf := 1 + r.Intn(8)
		tr, err := Build(cands, maxLeaf)
		if err != nil {
			t.Fatal(err)
		}
		c := tr.NewCounter()
		for _, tx := range txs {
			c.Add(tx)
		}
		want := referenceCount(cands, txs)
		for i := range cands {
			if c.Counts()[i] != want[i] {
				t.Fatalf("trial %d (k=%d, maxLeaf=%d): candidate %v counted %d, want %d",
					trial, k, maxLeaf, cands[i], c.Counts()[i], want[i])
			}
		}
	}
}

func TestMerge(t *testing.T) {
	cands := []item.Itemset{item.New(1, 2), item.New(2, 3)}
	tr, _ := Build(cands, 0)
	a, b := tr.NewCounter(), tr.NewCounter()
	a.Add(item.New(1, 2))
	b.Add(item.New(1, 2, 3))
	b.Add(item.New(2, 3))
	a.Merge(b)
	if a.Counts()[0] != 2 || a.Counts()[1] != 2 {
		t.Errorf("merged counts = %v", a.Counts())
	}
}

func TestMergeDifferentTreesPanics(t *testing.T) {
	t1, _ := Build([]item.Itemset{item.New(1)}, 0)
	t2, _ := Build([]item.Itemset{item.New(1)}, 0)
	defer func() {
		if recover() == nil {
			t.Error("cross-tree merge did not panic")
		}
	}()
	t1.NewCounter().Merge(t2.NewCounter())
}

func TestK1Candidates(t *testing.T) {
	cands := []item.Itemset{item.New(3), item.New(7), item.New(9)}
	tr, err := Build(cands, 1) // forces splits at depth 0
	if err != nil {
		t.Fatal(err)
	}
	c := tr.NewCounter()
	c.Add(item.New(3, 7))
	c.Add(item.New(9))
	c.Add(item.New(1))
	for i, want := range []int{1, 1, 1} {
		if c.Counts()[i] != want {
			t.Errorf("Count(%v) = %d, want %d", cands[i], c.Counts()[i], want)
		}
	}
}

func BenchmarkCountHashTree(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var cands []item.Itemset
	seen := map[string]bool{}
	for len(cands) < 2000 {
		raw := []item.Item{item.Item(r.Intn(500)), item.Item(r.Intn(500)), item.Item(r.Intn(500))}
		c := item.New(raw...)
		if c.Len() == 3 && !seen[c.String()] {
			seen[c.String()] = true
			cands = append(cands, c)
		}
	}
	var txs []item.Itemset
	for i := 0; i < 1000; i++ {
		raw := make([]item.Item, 12)
		for j := range raw {
			raw[j] = item.Item(r.Intn(500))
		}
		txs = append(txs, item.New(raw...))
	}
	tr, _ := Build(cands, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tr.NewCounter()
		for _, tx := range txs {
			c.Add(tx)
		}
	}
}

func BenchmarkCountReference(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var cands []item.Itemset
	seen := map[string]bool{}
	for len(cands) < 2000 {
		raw := []item.Item{item.Item(r.Intn(500)), item.Item(r.Intn(500)), item.Item(r.Intn(500))}
		c := item.New(raw...)
		if c.Len() == 3 && !seen[c.String()] {
			seen[c.String()] = true
			cands = append(cands, c)
		}
	}
	var txs []item.Itemset
	for i := 0; i < 1000; i++ {
		raw := make([]item.Item, 12)
		for j := range raw {
			raw[j] = item.Item(r.Intn(500))
		}
		txs = append(txs, item.New(raw...))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceCount(cands, txs)
	}
}

// TestAddAllocationFree pins the steady-state guarantee of the iterative
// probe path: once the counter's traversal stack has warmed up, Add
// allocates nothing.
func TestAddAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var cands []item.Itemset
	seen := map[string]bool{}
	for len(cands) < 500 {
		c := item.New(item.Item(r.Intn(80)), item.Item(r.Intn(80)), item.Item(r.Intn(80)))
		if c.Len() == 3 && !seen[c.String()] {
			seen[c.String()] = true
			cands = append(cands, c)
		}
	}
	tree, err := Build(cands, 4) // small leaves force deep traversals
	if err != nil {
		t.Fatal(err)
	}
	var txs []item.Itemset
	for i := 0; i < 50; i++ {
		raw := make([]item.Item, 15)
		for j := range raw {
			raw[j] = item.Item(r.Intn(80))
		}
		txs = append(txs, item.New(raw...))
	}
	c := tree.NewCounter()
	for _, tx := range txs {
		c.Add(tx) // warm the stack
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, tx := range txs {
			c.Add(tx)
		}
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %v times per run, want 0", allocs)
	}
}

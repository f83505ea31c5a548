package negative

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// candgenCase is one random input for GenerateCandidates.
type candgenCase struct {
	tax         *taxonomy.Taxonomy
	table       *item.SupportTable
	levels      [][]item.CountedSet
	substitutes []item.Itemset
	minSup      float64
	minRI       float64
}

// randomCandgenCase draws a small forest and a hand-made support table that
// together reach every branch of the generator: several roots (roots are
// each other's siblings), single-child categories, items the table knows but
// the taxonomy does not (ids ≥ tax.Size()), 1-itemsets that are absent or
// recorded with a zero count, large itemsets that pair an item with its own
// ancestor, substitute groups across all of those, and counts drawn from a
// handful of values so that different sources reach the same candidate with
// exactly equal expectations.
func randomCandgenCase(t *testing.T, r *rand.Rand) candgenCase {
	t.Helper()
	b := taxonomy.NewBuilder()
	n := 6 + r.Intn(20)
	for i := 0; i < n; i++ {
		name := "n" + strconv.Itoa(i)
		if i < 2 || r.Intn(5) == 0 {
			b.Node(name) // another root
			continue
		}
		b.Link("n"+strconv.Itoa(r.Intn(i)), name)
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	total := 1000
	if r.Intn(50) == 0 {
		total = 0
	}
	table := item.NewSupportTable(total)
	counts := []int{0, 100, 100, 200, 200, 400, 800}
	pool := make([]item.Item, 0, n+3) // items that may appear in large itemsets
	var l1 []item.CountedSet
	for x := item.Item(0); int(x) < n+3; x++ { // the last three ids are off-taxonomy
		if r.Intn(6) == 0 {
			if r.Intn(2) == 0 {
				pool = append(pool, x) // a member that is not large
			}
			continue
		}
		c := counts[r.Intn(len(counts))]
		table.Put(item.Itemset{x}, c)
		l1 = append(l1, item.CountedSet{Set: item.Itemset{x}, Count: c})
		pool = append(pool, x)
	}
	levels := [][]item.CountedSet{l1}
	for k := 2; k <= 4; k++ {
		var lk []item.CountedSet
		for i := r.Intn(12 >> (k - 2)); i > 0; i-- {
			raw := make([]item.Item, k)
			for j := range raw {
				raw[j] = pool[r.Intn(len(pool))]
			}
			set := item.New(raw...)
			if set.Len() != k || table.Contains(set) {
				continue
			}
			c := counts[r.Intn(len(counts))] / 2
			table.Put(set, c)
			lk = append(lk, item.CountedSet{Set: set, Count: c})
		}
		levels = append(levels, lk)
	}
	var subs []item.Itemset
	for i := r.Intn(3); i > 0; i-- {
		g := item.New(item.Item(r.Intn(n+3)), item.Item(r.Intn(n+3)), item.Item(r.Intn(n+3)))
		if g.Len() >= 2 {
			subs = append(subs, g)
		}
	}
	return candgenCase{tax, table, levels, subs, []float64{0.01, 0.05}[r.Intn(2)], []float64{0.1, 0.5}[r.Intn(2)]}
}

func sameCandidates(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return x.Set.Equal(y.Set) && x.Expected == y.Expected && x.Source.Equal(y.Source) && x.Via == y.Via
	})
}

// TestGenerateCandidatesMatchesReference holds the dense kernel to the
// generator it replaced, element for element and bit for bit, against both
// the full taxonomy (DisableTaxonomyCompression) and the compressed one.
func TestGenerateCandidatesMatchesReference(t *testing.T) {
	var total, ties, siblings, offTaxonomy int
	for seed := int64(1); seed <= 600; seed++ {
		c := randomCandgenCase(t, rand.New(rand.NewSource(seed)))
		restricted := c.tax.Restrict(func(x item.Item) bool { return c.table.Contains(item.Itemset{x}) })
		var want []Candidate
		for _, tax := range []*taxonomy.Taxonomy{restricted, c.tax} {
			want = referenceCandidates(c.levels, c.table, tax, c.minSup, c.minRI, c.substitutes)
			got := GenerateCandidates(c.levels, c.table, tax, c.minSup, c.minRI, c.substitutes)
			if !sameCandidates(got, want) {
				t.Fatalf("seed %d: kernel and reference disagree\n got  %v\n want %v", seed, got, want)
			}
		}

		// What the corpus covered, counted on the full taxonomy's candidates.
		// A tie shows as a candidate whose source depends on the order the
		// large itemsets are visited in.
		flipped := make([][]item.CountedSet, len(c.levels))
		for i, lvl := range c.levels {
			flipped[i] = slices.Clone(lvl)
			slices.Reverse(flipped[i])
		}
		for i, f := range referenceCandidates(flipped, c.table, c.tax, c.minSup, c.minRI, c.substitutes) {
			if f.Expected == want[i].Expected && !f.Source.Equal(want[i].Source) {
				ties++
			}
		}
		for _, w := range want {
			total++
			if w.Via == ViaSiblings {
				siblings++
			}
			if int(w.Set[len(w.Set)-1]) >= c.tax.Size() {
				offTaxonomy++
			}
		}
	}
	t.Logf("%d candidates: %d via siblings, %d with an off-taxonomy member, %d tied between sources", total, siblings, offTaxonomy, ties)
	if total < 5000 || siblings == 0 || offTaxonomy == 0 || ties == 0 {
		t.Fatal("the random corpus no longer reaches every branch of the generator")
	}
}

// candgenInput mines stage 1 of a generated dataset and compresses the
// taxonomy, which leaves exactly what mineStages23 hands GenerateCandidates.
func candgenInput(tb testing.TB, p datagen.Params, txns int, minSup float64) ([][]item.CountedSet, *item.SupportTable, *taxonomy.Taxonomy) {
	tb.Helper()
	p.NumTransactions, p.Seed = txns, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	large, err := gen.Mine(db, tax, gen.Options{MinSupport: minSup, Algorithm: gen.Cumulate})
	if err != nil {
		tb.Fatal(err)
	}
	gtax := tax.Restrict(func(x item.Item) bool { return large.Table.Contains(item.Itemset{x}) })
	return large.Levels, large.Table, gtax
}

// TestGenerateCandidatesAllocs pins the kernel's allocations to what it
// records — a key and an itemset per candidate plus amortized growth — so a
// per-choice allocation cannot come back unnoticed.
func TestGenerateCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	levels, table, tax := candgenInput(t, datagen.Tall(), 2000, 0.04)
	n := len(GenerateCandidates(levels, table, tax, 0.04, 0.3, nil))
	if n < 1000 {
		t.Fatalf("only %d candidates: input too small to mean anything", n)
	}
	allocs := testing.AllocsPerRun(3, func() { GenerateCandidates(levels, table, tax, 0.04, 0.3, nil) })
	if limit := float64(8*n + 64); allocs > limit {
		t.Fatalf("GenerateCandidates: %v allocs for %d candidates, want ≤ %v", allocs, n, limit)
	}
	t.Logf("%v allocs for %d candidates", allocs, n)
}

var candidateSink []Candidate

// BenchmarkGenerateCandidates runs the kernel on the inputs of the
// benchmark's batch-tall and batch-wide workloads (benchmark/sizes.go).
func BenchmarkGenerateCandidates(b *testing.B) {
	for _, bc := range []struct {
		name          string
		params        datagen.Params
		txns          int
		minSup, minRI float64
	}{
		{"tall", datagen.Tall(), 5000, 0.03, 0.3},
		{"short", datagen.Short(), 200000, 0.01, 0.5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			levels, table, tax := candgenInput(b, bc.params, bc.txns, bc.minSup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				candidateSink = GenerateCandidates(levels, table, tax, bc.minSup, bc.minRI, nil)
			}
			b.ReportMetric(float64(len(candidateSink)), "candidates")
		})
	}
}

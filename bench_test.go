// Benchmarks regenerating the paper's evaluation (one per table/figure) and
// the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes to look for (EXPERIMENTS.md records a full run):
//   - Fig5/Fig6: Better ≤ Naive at every support level, both growing fast
//     as support falls; Tall slower than Short in absolute terms.
//   - Fig7: candidates per large itemset higher at fanout 9 than fanout 3.
package negmine_test

import (
	"fmt"
	"sync"
	"testing"

	"negmine/internal/bench"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/taxonomy"
)

// benchScale divides the paper's 50,000 transactions for benchmark runs;
// the 8,000-item universe is kept, preserving relative supports.
const benchScale = 25

// benchMaxK caps stage-1 level depth so a single benchmark iteration stays
// in the hundreds of milliseconds.
const benchMaxK = 3

var (
	datasetOnce sync.Once
	shortDS     *bench.Dataset
	tallDS      *bench.Dataset
	datasetErr  error
)

func datasets(b *testing.B) (*bench.Dataset, *bench.Dataset) {
	b.Helper()
	datasetOnce.Do(func() {
		shortDS, datasetErr = bench.Short(benchScale, 1)
		if datasetErr != nil {
			return
		}
		tallDS, datasetErr = bench.Tall(benchScale, 1)
	})
	if datasetErr != nil {
		b.Fatal(datasetErr)
	}
	return shortDS, tallDS
}

func mineNegative(b *testing.B, ds *bench.Dataset, minSupPct float64, alg negative.Algorithm) *negative.Result {
	b.Helper()
	res, err := negative.Mine(ds.DB, ds.Tax, negative.Options{
		MinSupport: minSupPct / 100,
		MinRI:      0.5,
		Algorithm:  alg,
		Gen:        gen.Options{MaxK: benchMaxK},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig5Short regenerates Figure 5: Naive vs Better on the "Short"
// dataset across minimum supports.
func BenchmarkFig5Short(b *testing.B) {
	short, _ := datasets(b)
	for _, alg := range []negative.Algorithm{negative.Naive, negative.Improved} {
		for _, pct := range []float64{2, 1.5, 1} {
			b.Run(fmt.Sprintf("%v/minsup=%.1f%%", alg, pct), func(b *testing.B) {
				var negSec float64
				for i := 0; i < b.N; i++ {
					res := mineNegative(b, short, pct, alg)
					negSec += res.Timing.Negative.Seconds()
				}
				b.ReportMetric(negSec/float64(b.N), "neg-sec/op")
			})
		}
	}
}

// BenchmarkFig6Tall regenerates Figure 6: the same sweep on "Tall".
func BenchmarkFig6Tall(b *testing.B) {
	_, tall := datasets(b)
	for _, alg := range []negative.Algorithm{negative.Naive, negative.Improved} {
		for _, pct := range []float64{2, 1.5, 1} {
			b.Run(fmt.Sprintf("%v/minsup=%.1f%%", alg, pct), func(b *testing.B) {
				var negSec float64
				for i := 0; i < b.N; i++ {
					res := mineNegative(b, tall, pct, alg)
					negSec += res.Timing.Negative.Seconds()
				}
				b.ReportMetric(negSec/float64(b.N), "neg-sec/op")
			})
		}
	}
}

// BenchmarkFig7Candidates regenerates Figure 7: negative candidates per
// large itemset as a function of taxonomy fanout. The candidates/large
// metric is the figure's y-axis.
func BenchmarkFig7Candidates(b *testing.B) {
	short, tall := datasets(b)
	for _, ds := range []*bench.Dataset{short, tall} {
		b.Run(fmt.Sprintf("%s/fanout=%v", ds.Name, ds.Params.Fanout), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := mineNegative(b, ds, 1.5, negative.Improved)
				large := len(res.Large.Large())
				if large > 0 {
					ratio = float64(res.TotalCandidates()) / float64(large)
				}
			}
			b.ReportMetric(ratio, "cands/large")
		})
	}
}

// BenchmarkTable12Example runs the paper's worked example end to end
// (Tables 1 and 2 plus the Perrier =/=> Bryers rule).
func BenchmarkTable12Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunPaperExample()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Result.Rules) == 0 {
			b.Fatal("worked example produced no rules")
		}
	}
}

// BenchmarkBackends times the stage-1 miner, Cumulate, on the Short preset.
func BenchmarkBackends(b *testing.B) {
	short, _ := datasets(b)
	b.Run("Cumulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Mine(short.DB, short.Tax, gen.Options{MinSupport: 0.015, MaxK: benchMaxK}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCountingBackends compares the counting engines — Agrawal-Srikant
// hash tree vs vertical TID bitmap — on the Improved algorithm's negative
// stage, Short and Tall presets, plus the bitmap engine under a memory
// budget of a sixteenth of its widest matrix (the multi-window path). This
// is where the hashtree÷bitmap ratio is reproduced; the benchmark's
// count.negpass_s and bitmat.* layers time the counting pass alone.
func BenchmarkCountingBackends(b *testing.B) {
	short, tall := datasets(b)
	for _, ds := range []*bench.Dataset{short, tall} {
		mine := func(b *testing.B, backend count.Backend, mem *govern.Budget) float64 {
			opt := negative.Options{
				MinSupport: 0.015,
				MinRI:      0.5,
				Algorithm:  negative.Improved,
				Gen:        gen.Options{MaxK: benchMaxK},
			}
			opt.Count.Backend, opt.Count.Mem = backend, mem
			opt.Gen.Count = opt.Count
			res, err := negative.Mine(ds.DB, ds.Tax, opt)
			if err != nil {
				b.Fatal(err)
			}
			return res.Timing.Negative.Seconds()
		}
		for _, c := range []struct {
			name     string
			backend  count.Backend
			budgeted bool
		}{
			{"hashtree", count.BackendHashTree, false},
			{"bitmap", count.BackendBitmap, false},
			{"bitmap/mem=matrix÷16", count.BackendBitmap, true},
		} {
			b.Run(fmt.Sprintf("%s/%s", ds.Name, c.name), func(b *testing.B) {
				var mem *govern.Budget
				if c.budgeted {
					// An unlimited ledger still tracks: its high water after
					// one mine is the widest matrix any pass reserved.
					ledger := govern.NewBudget(0)
					mine(b, c.backend, ledger)
					mem = govern.NewBudget(ledger.HighWater() / 16)
					b.ResetTimer()
				}
				var negSec float64
				for i := 0; i < b.N; i++ {
					negSec += mine(b, c.backend, mem)
				}
				b.ReportMetric(negSec/float64(b.N), "neg-sec/op")
				if c.budgeted {
					b.ReportMetric(float64(mem.HighWater()), "highwater-B")
				}
			})
		}
	}
}

// BenchmarkAblationTaxonomyCompression measures candidate generation with
// and without the "delete small 1-itemsets from the taxonomy" optimization
// (paper §2.2's first optimization): over the full taxonomy and over its
// restriction to the large items, from one stage-1 result. Candidate
// generation is the only step the restriction feeds.
func BenchmarkAblationTaxonomyCompression(b *testing.B) {
	short, _ := datasets(b)
	const minSup, minRI = 0.015, 0.5
	large, err := gen.Mine(short.DB, short.Tax, gen.Options{MinSupport: minSup, MaxK: benchMaxK})
	if err != nil {
		b.Fatal(err)
	}
	compressed := short.Tax.Restrict(func(x item.Item) bool { return large.Table.Contains(item.Itemset{x}) })
	for _, c := range []struct {
		name string
		tax  *taxonomy.Taxonomy
	}{{"compressed", compressed}, {"full-taxonomy", short.Tax}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				negative.GenerateCandidates(large.Levels, large.Table, c.tax, minSup, minRI, nil)
			}
		})
	}
}

// BenchmarkAblationMemoryBound measures the §2.5 candidate memory bound:
// smaller bounds mean more counting passes.
func BenchmarkAblationMemoryBound(b *testing.B) {
	short, _ := datasets(b)
	for _, bound := range []int{0, 1000, 100} {
		b.Run(fmt.Sprintf("maxCands=%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := negative.Mine(short.DB, short.Tax, negative.Options{
					MinSupport:    0.015,
					MinRI:         0.5,
					Gen:           gen.Options{MaxK: benchMaxK},
					MaxCandidates: bound,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelCounting measures the sharded-scan counting speedup.
func BenchmarkParallelCounting(b *testing.B) {
	short, _ := datasets(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := gen.Options{MinSupport: 0.015, MaxK: benchMaxK}
				opt.Count.Parallelism = workers
				if _, err := gen.Mine(short.DB, short.Tax, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package apriori_test

import (
	"runtime"
	"slices"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/item"
)

// BenchmarkAprioriGen times apriori-gen over the levels of the benchmark's
// batch-tall mine — 5 000 Tall transactions at 3 %, Cumulate — one op being
// Gen over every level but the last, as the level-wise mine calls it. Before
// anything is timed, every large k-itemset must be among Gen's candidates
// from level k-1.
func BenchmarkAprioriGen(b *testing.B) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 5000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := gen.Options{MinSupport: 0.03, Algorithm: gen.Cumulate}
	opt.Count.Parallelism = runtime.NumCPU()
	large, err := gen.Mine(db, tax, opt)
	if err != nil {
		b.Fatal(err)
	}
	var levels [][]item.Itemset
	for k := 1; k < len(large.Levels); k++ {
		prev, cands := large.LevelSets(k), apriori.Gen(large.LevelSets(k))
		for _, l := range large.LevelSets(k + 1) {
			if _, ok := slices.BinarySearchFunc(cands, l, item.Itemset.Compare); !ok {
				b.Fatalf("large %v is not among Gen's %d candidates from level %d", l, len(cands), k)
			}
		}
		levels = append(levels, prev)
	}
	if len(levels) < 3 {
		b.Fatalf("%d levels: input too small to mean anything", len(levels))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prev := range levels {
			candidateSink = apriori.Gen(prev)
		}
	}
}

var candidateSink []item.Itemset

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
	opt := gen.Options{MinSupport: 0.03}
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

// BenchmarkGenRules times positive rule generation — ap-genrules over the
// large itemsets of 5 000 Tall transactions at 1 %, Cumulate, at confidence
// 0.6, as negmine -positive runs it. Before anything is timed, the rules must
// be the brute-force reference's: every split of every large itemset.
func BenchmarkGenRules(b *testing.B) {
	p := datagen.Tall()
	p.NumTransactions, p.Seed = 5000, 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := gen.Options{MinSupport: 0.01}
	opt.Count.Parallelism = runtime.NumCPU()
	large, err := gen.Mine(db, tax, opt)
	if err != nil {
		b.Fatal(err)
	}
	const minConf = 0.6
	rules, err := apriori.GenRules(large, minConf)
	if err != nil {
		b.Fatal(err)
	}
	want := apriori.BruteForceRules(large, minConf)
	if len(rules) != len(want) {
		b.Fatalf("GenRules made %d rules, the reference %d", len(rules), len(want))
	}
	for _, r := range rules {
		if conf, ok := want[r.Antecedent.String()+"=>"+r.Consequent.String()]; !ok || conf != r.Confidence {
			b.Fatalf("rule %v: reference confidence %v (present %v)", r, conf, ok)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ruleSink, err = apriori.GenRules(large, minConf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rules)), "rules")
}

var ruleSink []apriori.Rule

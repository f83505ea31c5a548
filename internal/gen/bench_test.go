package gen

import (
	"fmt"
	"testing"

	"negmine/internal/count"
	"negmine/internal/item"
)

func BenchmarkAlgorithms(b *testing.B) {
	tax, db := randomTaxDB(99, 60, 2500, 8)
	for _, alg := range []Algorithm{Basic, Cumulate, EstMerge} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := Options{MinSupport: 0.03, Algorithm: alg, MaxK: 3, SampleSize: 500}
				if _, err := Mine(db, tax, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCumulateParallelism(b *testing.B) {
	tax, db := randomTaxDB(98, 60, 4000, 8)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := Options{MinSupport: 0.03, Algorithm: Cumulate, MaxK: 3}
				opt.Count = count.Options{Parallelism: workers}
				if _, err := Mine(db, tax, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransforms isolates the per-transaction ancestor-extension cost:
// Basic's parent-chain walk vs Cumulate's cached closure.
func BenchmarkTransforms(b *testing.B) {
	tax, db := randomTaxDB(97, 120, 500, 8)
	txs := db.Transactions()
	basic := basicTransform(tax)
	all := make(item.Itemset, tax.Size())
	for x := range all {
		all[x] = item.Item(x)
	}
	cum := cumulateTransform(tax, []item.Itemset{all})
	buf := make([]item.Item, 0, 256)
	b.Run("basic-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tx := range txs {
				s := basic(buf[:0], tx.Items)
				buf = s[:0]
			}
		}
	})
	b.Run("cumulate-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tx := range txs {
				s := cum(buf[:0], tx.Items)
				buf = s[:0]
			}
		}
	})
}

package gen

import (
	"fmt"
	"testing"

	"negmine/internal/count"
)

func BenchmarkAlgorithms(b *testing.B) {
	tax, db := randomTaxDB(99, 60, 2500, 8)
	b.Run("Cumulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mine(db, tax, Options{MinSupport: 0.03, MaxK: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCumulateParallelism(b *testing.B) {
	tax, db := randomTaxDB(98, 60, 4000, 8)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := Options{MinSupport: 0.03, MaxK: 3}
				opt.Count = count.Options{Parallelism: workers}
				if _, err := Mine(db, tax, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

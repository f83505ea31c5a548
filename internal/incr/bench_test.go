package incr

import (
	"fmt"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
)

// streamOpts are stream-mixed's mining options (it runs them on two workers).
func streamOpts(workers int) negative.Options {
	opt := negative.Options{MinSupport: 0.0125, MinRI: 0.5, Gen: gen.Options{Algorithm: gen.Cumulate, MaxK: 3}}
	opt.Count.Parallelism, opt.Gen.Count.Parallelism = workers, workers
	return opt
}

// shortBaskets generates n transactions of the paper's Short data.
func shortBaskets(t testing.TB, n int) (*taxonomy.Taxonomy, []item.Itemset) {
	t.Helper()
	p := datagen.Short()
	p.NumTransactions = n
	tax, db, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tax, basketsOf(db)
}

// BenchmarkRefreshGrowing times one refresh per iteration, each after 250 new
// transactions, over a log that starts at 10 000 and at 100 000 transactions:
// what a refresh costs must follow the 250, not the log. The last/first
// metric divides the larger log's ns/op by the smaller one's.
func BenchmarkRefreshGrowing(b *testing.B) {
	const round = 250
	sizes := []int{10000, 100000}
	tax, baskets := shortBaskets(b, sizes[1]+round*max(b.N, 100))
	var first float64
	for _, n := range sizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			log, err := seglog.Open(b.TempDir(), seglog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			fillLog(b, log, baskets[:n], 1000, 0)
			m := New(tax, streamOpts(2))
			if _, err := m.Refresh(log); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				lo := n + i*round%(len(baskets)-n-round)
				fillLog(b, log, baskets[lo:lo+round], round, 0)
				b.StartTimer()
				if _, err := m.Refresh(log); err != nil {
					b.Fatal(err)
				}
			}
			if st := m.LastStats(); st.NewSegments != 1 || st.OldSegmentScans != 0 {
				b.Fatalf("refresh stats: %+v", st)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if n == sizes[0] {
				first = perOp
			} else if first > 0 {
				b.ReportMetric(perOp/first, "last/first")
			}
		})
	}
}

// BenchmarkRefresh times a warm refresh (index current, nothing new to read)
// of the same 10 000 Short transactions sealed as 2 and as 40 segments, with
// stream-mixed's mining options: the cost must not depend on how the log
// happens to be cut.
func BenchmarkRefresh(b *testing.B) {
	tax, baskets := shortBaskets(b, 10000)
	opt := streamOpts(0)
	for _, segments := range []int{2, 40} {
		b.Run(fmt.Sprintf("segments=%d", segments), func(b *testing.B) {
			log, err := seglog.Open(b.TempDir(), seglog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			fillLog(b, log, baskets, len(baskets)/segments, 1)
			m := New(tax, opt)
			if _, err := m.Refresh(log); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Refresh(log); err != nil {
					b.Fatal(err)
				}
			}
			if st := m.LastStats(); st.Segments != segments || st.NewSegments != 0 || st.OldSegmentScans != 0 {
				b.Fatalf("warm refresh stats: %+v", st)
			}
		})
	}
}

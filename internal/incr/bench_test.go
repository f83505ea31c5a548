package incr

import (
	"fmt"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/negative"
	"negmine/internal/seglog"
)

// BenchmarkRefresh times a warm refresh (index current, nothing new to read)
// of the same 10 000 Short transactions sealed as 2 and as 40 segments, with
// stream-mixed's mining options: the cost must not depend on how the log
// happens to be cut.
func BenchmarkRefresh(b *testing.B) {
	p := datagen.Short()
	p.NumTransactions = 10000
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	baskets := basketsOf(db)
	opt := negative.Options{MinSupport: 0.0125, MinRI: 0.5, Gen: gen.Options{Algorithm: gen.Cumulate, MaxK: 3}}
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

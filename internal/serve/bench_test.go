package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/negative"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
)

// benchStore mines the first n transactions of a datagen model the way the
// benchmark harness does (model seed 1, Improved over Cumulate, every core),
// so Short 5 000 at 1 % / 0.5 is serve-read's rule set and Short 5 000 at
// 1.25 % / 0.5 with itemsets of at most 3 is stream-mixed's first one.
func benchStore(b testing.TB, p datagen.Params, n int, minSup, minRI float64, maxK int) (*rulestore.Store, *taxonomy.Taxonomy) {
	b.Helper()
	p.NumTransactions = n
	p.Seed = 1
	tax, db, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := negative.Options{
		MinSupport: minSup,
		MinRI:      minRI,
		Algorithm:  negative.Improved,
		Gen:        gen.Options{MaxK: maxK},
	}
	opt.Count.Parallelism = runtime.NumCPU()
	opt.Gen.Count.Parallelism = runtime.NumCPU()
	res, err := negative.Mine(db, tax, opt)
	if err != nil {
		b.Fatal(err)
	}
	return rulestore.New(res, tax.Name), tax
}

// BenchmarkHandlerRules is GET /rules through Server.Handler(), round-robin
// over every name a rule mentions, at the limit serve-read sends and without
// one, on a Short and a Tall rule set.
func BenchmarkHandlerRules(b *testing.B) {
	for _, set := range []struct {
		name          string
		p             datagen.Params
		minSup, minRI float64
	}{
		{"short", datagen.Short(), 0.01, 0.5},
		{"tall", datagen.Tall(), 0.03, 0.3},
	} {
		st, tax := benchStore(b, set.p, 5000, set.minSup, set.minRI, 0)
		snap := BuildSnapshot(st, tax, Meta{})
		srv, err := NewServer(context.Background(),
			func(context.Context) (*Snapshot, error) { return snap, nil },
			WithLogger(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		seen := map[string]bool{}
		var names []string
		for _, e := range snap.Rules() {
			for _, side := range [][]string{e.Antecedent, e.Consequent} {
				for _, name := range side {
					if !seen[name] {
						seen[name] = true
						names = append(names, name)
					}
				}
			}
		}
		sort.Strings(names)
		b.Logf("%s: %d rules, %d names", set.name, snap.Len(), len(names))
		for _, q := range []struct{ name, limit string }{
			{"limit=20", "&limit=20"},
			{"unlimited", ""},
		} {
			reqs := make([]*http.Request, len(names))
			for i, name := range names {
				reqs[i] = httptest.NewRequest(http.MethodGet, "/rules?item="+url.QueryEscape(name)+q.limit, nil)
				rec := httptest.NewRecorder()
				if h.ServeHTTP(rec, reqs[i]); rec.Code != http.StatusOK {
					b.Fatalf("GET %s: status %d", reqs[i].URL, rec.Code)
				}
			}
			b.Run(set.name+"/"+q.name, func(b *testing.B) {
				w := &discardWriter{header: http.Header{}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(w.header)
					h.ServeHTTP(w, reqs[i%len(reqs)])
				}
			})
		}
	}
}

var benchSnapshot *Snapshot

// BenchmarkBuildSnapshot builds serve-read's rule set, a stream-sized one (a
// handful of rules over Short's full taxonomy, whose vocabulary every refresh
// of a streaming daemon shares; TestBuildSnapshotStreamBytes pins what the
// rest allocates) and Tall 5 000 at 1 % / 0.5, ≈ 54 k rules, where ranking
// them shows. Each set's RuleID order is first held to a stable sort by
// descending RI over the store's signature order.
func BenchmarkBuildSnapshot(b *testing.B) {
	for _, set := range []struct {
		name          string
		p             datagen.Params
		minSup, minRI float64
		maxK          int
	}{
		{"short", datagen.Short(), 0.01, 0.5, 0},
		{"stream", datagen.Short(), 0.0125, 0.5, 3},
		{"tall-1pct", datagen.Tall(), 0.01, 0.5, 0},
	} {
		st, tax := benchStore(b, set.p, 5000, set.minSup, set.minRI, set.maxK)
		b.Logf("%s: %d rules, %d taxonomy nodes", set.name, st.Len(), tax.Size())
		want := slices.Clone(st.All())
		sort.SliceStable(want, func(i, j int) bool { return want[i].RI > want[j].RI })
		if !entriesEqual(BuildSnapshot(st, tax, Meta{}).Rules(), want) {
			b.Fatalf("%s: RuleID order is not the stable sort by RI over signature order", set.name)
		}
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSnapshot = BuildSnapshot(st, tax, Meta{})
			}
		})
	}
}

// BenchmarkOpenSnapshotFile opens serve-read's rule set and Tall 10 000 at
// 2 % / 0.3 from .nsnap files: validate, copy out the item names and derive
// the two indexes from the arena — what a replica or a restart pays instead
// of a mine.
func BenchmarkOpenSnapshotFile(b *testing.B) {
	for _, set := range []struct {
		name          string
		p             datagen.Params
		n             int
		minSup, minRI float64
	}{
		{"short", datagen.Short(), 5000, 0.01, 0.5},
		{"tall", datagen.Tall(), 10000, 0.02, 0.3},
	} {
		st, tax := benchStore(b, set.p, set.n, set.minSup, set.minRI, 0)
		path := filepath.Join(b.TempDir(), set.name+".nsnap")
		if err := WriteSnapshotFile(path, BuildSnapshot(st, tax, Meta{}), 1); err != nil {
			b.Fatal(err)
		}
		b.Logf("%s: %d rules, %d taxonomy nodes", set.name, st.Len(), tax.Size())
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := OpenSnapshotFile(path, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchSnapshot = s
			}
		})
	}
}

package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
)

// scratchSnapshot is BuildSnapshot as it was before snapshots shared their
// taxonomy's vocabulary: every name interned afresh — the taxonomy's in id
// order, then the rules' — and every ancestor chain flattened again.
func scratchSnapshot(st *rulestore.Store, tax *taxonomy.Taxonomy) *Snapshot {
	var entries []rulestore.Entry
	st.Each(func(e rulestore.Entry) bool { entries = append(entries, e); return true })
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].RI > entries[j].RI })
	s := &Snapshot{itemID: map[string]int32{}}
	intern := func(name string) {
		if _, ok := s.itemID[name]; !ok {
			s.itemID[name] = int32(len(s.names))
			s.names = append(s.names, name)
		}
	}
	if tax != nil {
		for id := 0; id < tax.Size(); id++ {
			intern(tax.Name(item.Item(id)))
		}
	}
	for _, e := range entries {
		for _, n := range append(append([]string(nil), e.Antecedent...), e.Consequent...) {
			intern(n)
		}
	}
	m := len(s.names)
	s.ancOff = make([]uint32, m+1)
	for id := 0; id <= m; id++ {
		s.ancOff[id] = uint32(len(s.ancIDs))
		if tax != nil && id < tax.Size() {
			for _, a := range tax.AncestorsOf(item.Item(id)) {
				s.ancIDs = append(s.ancIDs, int32(a))
			}
		}
	}
	s.buildArena(entries)
	s.buildFragments()
	s.index()
	return s
}

// withEvery returns tax with every name of pool that it lacks added as a
// root: the same forest, under which no rule names an item off the taxonomy.
func withEvery(t *testing.T, tax *taxonomy.Taxonomy, pool []string) *taxonomy.Taxonomy {
	t.Helper()
	b := taxonomy.NewBuilder()
	for id := 0; id < tax.Size(); id++ {
		if p := tax.Parent(item.Item(id)); p != item.None {
			b.Link(tax.Name(p), tax.Name(item.Item(id)))
		} else {
			b.Node(tax.Name(item.Item(id)))
		}
	}
	for _, name := range pool {
		b.Node(name)
	}
	full, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// sameSnapshot fails unless got and want encode to the same .nsnap bytes and
// answer every query of qs with the same /rules and /score bodies.
func sameSnapshot(t *testing.T, what string, got, want *Snapshot, qs []readQuery) {
	t.Helper()
	got.built, want.built = time.Unix(1, 0), time.Unix(1, 0)
	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, got, 7); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, want, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: .nsnap bytes differ from a from-scratch intern (%d vs %d bytes)", what, a.Len(), b.Len())
	}
	hg, hw := serveSnapshot(t, got), serveSnapshot(t, want)
	for _, q := range qs {
		g, w := q.send(t, hg, false), q.send(t, hw, false)
		if g.Code != w.Code || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("%s %+v: %d %q, from scratch %d %q", what, q, g.Code, g.Body.Bytes(), w.Code, w.Body.Bytes())
		}
	}
}

// TestSharedVocabularyMatchesScratchIntern: a snapshot built on its
// taxonomy's shared vocabulary — or on a copy extended by rule-only names, or
// with no taxonomy at all — is byte for byte the snapshot interning from
// scratch builds, in its .nsnap file and in every /rules and /score reply.
func TestSharedVocabularyMatchesScratchIntern(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 12; trial++ {
		st, tax, pool := hostileWorld(t, rng)
		qs := randomQueries(rng, pool)
		full := withEvery(t, tax, pool)
		for _, c := range []struct {
			name string
			tax  *taxonomy.Taxonomy
		}{{"rule-only names", tax}, {"all names in the taxonomy", full}, {"no taxonomy", nil}} {
			sameSnapshot(t, fmt.Sprintf("trial %d, %s", trial, c.name), BuildSnapshot(st, c.tax, Meta{}), scratchSnapshot(st, c.tax), qs)
		}
	}
}

// sharesVocabulary reports whether s indexes by exactly in's arrays and map.
func sharesVocabulary(s *Snapshot, in *taxonomy.Interned) bool {
	return &s.names[0] == &in.Names[0] && &s.ancOff[0] == &in.AncOff[0] &&
		reflect.ValueOf(s.itemID).UnsafePointer() == reflect.ValueOf(in.ID).UnsafePointer()
}

// TestSnapshotsShareTaxonomyVocabulary: two builds against one taxonomy share
// its one vocabulary; a build whose rules name an item the taxonomy lacks
// extends a copy of it, and leaves the shared one — which readers of the
// first snapshot are using meanwhile, under the race detector in CI — as it
// was.
func TestSnapshotsShareTaxonomyVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st, tax, pool := hostileWorld(t, rng)
	tax = withEvery(t, tax, pool)
	in := tax.Interned()
	first := BuildSnapshot(st, tax, Meta{})
	if second := BuildSnapshot(st, tax, Meta{}); !sharesVocabulary(first, in) || !sharesVocabulary(second, in) {
		t.Fatal("two builds against one taxonomy do not share its vocabulary")
	}
	qs := randomQueries(rng, pool)
	h := serveSnapshot(t, first)
	want := make([][]byte, len(qs))
	for i, q := range qs {
		want[i] = q.send(t, h, false).Body.Bytes()
	}

	off := &report.NegativeReport{Rules: []report.NegativeRuleRecord{
		{Antecedent: []string{pool[0], "off-taxonomy"}, Consequent: []string{"also-off"}, RuleInterest: 0.9},
		{Antecedent: []string{pool[1]}, Consequent: []string{pool[2]}, RuleInterest: 0.8},
	}}
	stop := make(chan struct{})
	var wg, reading sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		reading.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				got := q.send(t, h, false).Body.Bytes()
				if i == g {
					reading.Done()
				}
				if !bytes.Equal(got, want[i%len(qs)]) {
					t.Errorf("%+v during off-taxonomy builds: %q, want %q", q, got, want[i%len(qs)])
					return
				}
			}
		}(g)
	}
	reading.Wait()
	var built *Snapshot
	for i := 0; i < 20; i++ {
		built = BuildSnapshot(rulestore.FromReport(off), tax, Meta{})
	}
	close(stop)
	wg.Wait()

	if sharesVocabulary(built, in) || len(built.names) != tax.Size()+2 || built.itemID["also-off"] != int32(tax.Size()+1) {
		t.Fatalf("off-taxonomy build: %d names, also-off at %d", len(built.names), built.itemID["also-off"])
	}
	if len(in.Names) != tax.Size() || len(in.ID) != tax.Size() || len(in.AncOff) != tax.Size()+1 || tax.Interned() != in {
		t.Fatalf("the shared vocabulary changed: %d names, %d ids, %d offsets for %d nodes", len(in.Names), len(in.ID), len(in.AncOff), tax.Size())
	}
	if got := built.QueryEntries("also-off", 0, 0); len(got) != 1 || got[0].RI != 0.9 {
		t.Fatalf("off-taxonomy item answers %v", got)
	}
}

// TestBuildSnapshotStreamBytes pins what a stream-sized build (stream-mixed's
// first rule set over Short's 8 981-node taxonomy) allocates once its
// taxonomy's vocabulary exists: at most 0.3 MB, nearly all of it the two
// indexes' postings, one per node. Interning the taxonomy on every build cost
// 3.9 MB; three indexes keeping every posting in two forms, 2.0 MB.
func TestBuildSnapshotStreamBytes(t *testing.T) {
	skipUnderRace(t)
	st, tax := benchStore(t, datagen.Short(), 5000, 0.0125, 0.5, 3)
	benchSnapshot = BuildSnapshot(st, tax, Meta{})
	const builds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		benchSnapshot = BuildSnapshot(st, tax, Meta{})
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("%d rules over %d nodes: %d bytes a build", st.Len(), tax.Size(), perBuild)
	if perBuild > 300_000 {
		t.Fatalf("a stream-sized build allocates %d bytes, want ≤ 0.3 MB", perBuild)
	}
}

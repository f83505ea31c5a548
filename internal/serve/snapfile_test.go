package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"negmine/internal/report"
	"negmine/internal/rulestore"
)

// TestSnapshotFileRoundTripOracle is the snapshot-format oracle: build a
// snapshot in the heap, write it to a .nsnap file, load it back through the
// mmap path, and require every query answer — ids, entries, scores,
// expansions, bit patterns of every float — to be identical to the in-heap
// original. Randomized worlds cover sparse/dense/shared postings and RI
// ties.
func TestSnapshotFileRoundTripOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		st, tax, _, pool := randomWorld(t, rng)
		built := BuildSnapshot(st, tax, Meta{Source: "oracle world", MinSupport: 0.01, MinRI: 0.1})

		path := filepath.Join(t.TempDir(), "snap.nsnap")
		if err := WriteSnapshotFile(path, built, 42); err != nil {
			t.Fatalf("trial %d: WriteSnapshotFile: %v", trial, err)
		}
		loaded, err := OpenSnapshotFile(path, 0)
		if err != nil {
			t.Fatalf("trial %d: OpenSnapshotFile: %v", trial, err)
		}
		if loaded.Generation() != 42 || loaded.SourceKind() != "mmap" {
			t.Fatalf("trial %d: provenance = gen %d kind %q", trial, loaded.Generation(), loaded.SourceKind())
		}
		if loaded.Len() != built.Len() {
			t.Fatalf("trial %d: %d rules loaded, want %d", trial, loaded.Len(), built.Len())
		}
		info := loaded.Info()
		if info.Source != "oracle world" || info.MinSupport != 0.01 || info.MinRI != 0.1 {
			t.Fatalf("trial %d: info = %+v", trial, info)
		}
		if !info.Built.Equal(built.Info().Built) {
			t.Fatalf("trial %d: built time drifted: %v vs %v", trial, info.Built, built.Info().Built)
		}

		// Bit-identical rule arena.
		for i := 0; i < built.Len(); i++ {
			id := RuleID(i)
			be, le := built.Entry(id), loaded.Entry(id)
			if !reflect.DeepEqual(be, le) {
				t.Fatalf("trial %d: Entry(%d) = %+v, want %+v", trial, i, le, be)
			}
			if math.Float64bits(built.ri[id]) != math.Float64bits(loaded.ri[id]) {
				t.Fatalf("trial %d: RI(%d) bits differ", trial, i)
			}
		}

		// Identical query answers on every pool item across thresholds.
		minRIs := []float64{0, 0.2, 0.4, 0.8, 1.5}
		queries := append(append([]string(nil), pool...), "unknown-item")
		for _, name := range queries {
			for _, minRI := range minRIs {
				want := built.QueryItem(nil, name, minRI, 0)
				got := loaded.QueryItem(nil, name, minRI, 0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: QueryItem(%q, %v) = %v, want %v", trial, name, minRI, got, want)
				}
			}
			if got, want := loaded.Expand(nil, name), built.Expand(nil, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Expand(%q) = %v, want %v", trial, name, got, want)
			}
		}
		for q := 0; q < 15; q++ {
			basket := make([]string, 1+rng.Intn(4))
			for i := range basket {
				basket[i] = pool[rng.Intn(len(pool))]
			}
			minRI := minRIs[rng.Intn(len(minRIs))]
			want := built.Score(nil, basket, minRI, 0)
			got := loaded.Score(nil, basket, minRI, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Score(%v, %v) = %v, want %v", trial, basket, minRI, got, want)
			}
		}

		// Re-encoding the loaded snapshot must reproduce the file byte for
		// byte — proof that the arena survives the trip.
		var first, second bytes.Buffer
		if err := EncodeSnapshot(&first, built, 42); err != nil {
			t.Fatal(err)
		}
		if err := EncodeSnapshot(&second, loaded, 42); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: re-encoded snapshot differs from original encoding", trial)
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(disk, first.Bytes()) {
			t.Fatalf("trial %d: on-disk bytes differ from streamed encoding", trial)
		}
	}
}

// TestSnapshotFileCache checks that a loaded snapshot, which keeps no query
// cache, answers repeated queries from the mapped file with the same ids as
// the in-heap original, and that reusing the destination slice across
// queries does not leak one answer into the next.
func TestSnapshotFileCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st, tax, _, pool := randomWorld(t, rng)
	built := BuildSnapshot(st, tax, Meta{})
	path := filepath.Join(t.TempDir(), "snap.nsnap")
	if err := WriteSnapshotFile(path, built, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dst []RuleID
	for _, name := range pool {
		want := built.QueryItem(nil, name, 0, 0)
		for pass := 0; pass < 2; pass++ { // a repeat answers from the file again
			got := loaded.QueryItem(nil, name, 0, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: QueryItem(%q) = %v, want %v", pass, name, got, want)
			}
			dst = loaded.QueryItem(dst[:0], name, 0, 0)
			if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
				t.Fatalf("pass %d: QueryItem(dst, %q) = %v, want %v", pass, name, dst, want)
			}
		}
	}
}

// TestOpenSnapshotFileRejectsCorruption flips bits across the file and
// requires OpenSnapshotFile to fail cleanly every time.
func TestOpenSnapshotFileRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st, tax, _, _ := randomWorld(t, rng)
	built := BuildSnapshot(st, tax, Meta{})
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.nsnap")
	if err := WriteSnapshotFile(path, built, 1); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 7, 40, 80, len(pristine) / 3, len(pristine) / 2, len(pristine) - 2} {
		bad := bytes.Clone(pristine)
		bad[pos] ^= 0x40
		p := filepath.Join(dir, "bad.nsnap")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := OpenSnapshotFile(p, 0); err == nil {
			t.Fatalf("bit flip at %d: loaded %d rules from corrupt file", pos, snap.Len())
		}
	}
	// Truncations.
	for _, cut := range []int{0, 10, 64, len(pristine) - 1} {
		p := filepath.Join(dir, "trunc.nsnap")
		if err := os.WriteFile(p, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotFile(p, 0); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}
}

// TestOpenSnapshotFileMtimeFallback: a .nsnap whose writer never stamped
// CreatedNs (pre-HA files, or replication paths that rebuild images) must
// not report a built time at the epoch — replica-mode freshness alarms
// would read that as a snapshot decades stale. The file's mtime is the
// fallback birth certificate.
func TestOpenSnapshotFileMtimeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st, tax, _, _ := randomWorld(t, rng)
	built := BuildSnapshot(st, tax, Meta{})
	built.built = time.Time{} // simulate a writer with no build timestamp
	path := filepath.Join(t.TempDir(), "snap.nsnap")
	if err := WriteSnapshotFile(path, built, 1); err != nil {
		t.Fatal(err)
	}
	// Pin a known mtime well in the past but far from the epoch.
	want := time.Now().Add(-90 * time.Minute).Truncate(time.Second)
	if err := os.Chtimes(path, want, want); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Info().Built; !got.Equal(want) {
		t.Fatalf("Built = %v, want file mtime %v", got, want)
	}
	if age := loaded.Age(); age < 89*time.Minute || age > 92*time.Minute {
		t.Fatalf("Age = %v, want ≈90m", age)
	}

	// A stamped file keeps its embedded time and ignores mtime entirely.
	stamped := BuildSnapshot(st, tax, Meta{})
	path2 := filepath.Join(t.TempDir(), "stamped.nsnap")
	if err := WriteSnapshotFile(path2, stamped, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path2, want, want); err != nil {
		t.Fatal(err)
	}
	loaded2, err := OpenSnapshotFile(path2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded2.Info().Built; !got.Equal(stamped.Info().Built) {
		t.Fatalf("stamped Built = %v, want %v", got, stamped.Info().Built)
	}
}

// TestOpenSnapshotFileReleasedWhenDropped: a daemon opens a new .nsnap on
// every swap and simply drops the old snapshot, so a dropped snapshot must
// give back both its heap and its mapping. Neither happens if anything the
// snapshot owns points back at it — the finalizer that unmaps the file does
// not run on a cycle — which is how every opened snapshot once stayed
// resident for the life of the process.
func TestOpenSnapshotFileReleasedWhenDropped(t *testing.T) {
	st, tax, _, pool := randomWorld(t, rand.New(rand.NewSource(3)))
	path := filepath.Join(t.TempDir(), "leak.nsnap")
	if err := WriteSnapshotFile(path, BuildSnapshot(st, tax, Meta{}), 1); err != nil {
		t.Fatal(err)
	}
	// Mappings of the file in this process; -1 where there is no /proc.
	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			return -1
		}
		return bytes.Count(maps, []byte(path))
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	runtime.GC()
	before := heap()
	for i := 0; i < 50; i++ {
		s, err := OpenSnapshotFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Score(nil, pool[:2], 0, 0) // the scratch pool has been used
		if i == 0 && mappings() == 0 {
			t.Fatal("an open snapshot does not show in /proc/self/maps: the check below would pass vacuously")
		}
	}
	// One collection queues the finalizers, the next frees what they
	// released; the finalizer goroutine runs in between, hence the retries.
	var grown int64
	var mapped int
	for try := 0; try < 100; try++ {
		runtime.GC()
		runtime.GC()
		if grown, mapped = heap()-before, mappings(); grown < 4<<20 && mapped <= 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("after dropping 50 opened snapshots: heap grew by %d KiB, %d mappings of the file remain", grown>>10, mapped)
}

// sameIndexes fails unless got derived exactly want's posting indexes:
// descriptor for descriptor, over the same backing arrays.
func sameIndexes(t *testing.T, what string, got, want *Snapshot) {
	t.Helper()
	for _, idx := range []struct {
		name      string
		got, want *postingIndex
	}{{"ante", &got.ante, &want.ante}, {"reach", &got.reach, &want.reach}} {
		if !reflect.DeepEqual(idx.got.items, idx.want.items) ||
			!slices.Equal(idx.got.ids, idx.want.ids) || !slices.Equal(idx.got.words, idx.want.words) {
			t.Fatalf("%s: %s index differs from the built snapshot's", what, idx.name)
		}
	}
	if got.Info().IndexedItems != want.Info().IndexedItems || got.indexBytes != want.indexBytes ||
		!reflect.DeepEqual(got.Layout(), want.Layout()) {
		t.Fatalf("%s: info %+v / layout %+v, built %+v / %+v", what, got.Info(), got.Layout(), want.Info(), want.Layout())
	}
}

// TestOpenedIndexesMatchBuild: a snapshot opened from its file derives the
// very indexes its build did, over random and hostile worlds.
func TestOpenedIndexesMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		st, tax, _, _ := randomWorld(t, rng)
		if trial%2 == 1 {
			st, tax, _ = hostileWorld(t, rng)
		}
		built := BuildSnapshot(st, tax, Meta{})
		path := filepath.Join(t.TempDir(), "snap.nsnap")
		if err := WriteSnapshotFile(path, built, 1); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenSnapshotFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameIndexes(t, fmt.Sprintf("trial %d", trial), opened, built)
	}
}

// TestRepeatedSideItemListedOnce: a rule naming an item twice on one side —
// which a -report file may hold — is one entry of that item's postings, built
// or opened.
func TestRepeatedSideItemListedOnce(t *testing.T) {
	st := rulestore.FromReport(&report.NegativeReport{Rules: []report.NegativeRuleRecord{
		{Antecedent: []string{"pepsi", "pepsi"}, Consequent: []string{"chips", "chips"}, RuleInterest: 0.9},
		{Antecedent: []string{"coke"}, Consequent: []string{"pepsi", "juice", "pepsi"}, RuleInterest: 0.5},
	}})
	built := BuildSnapshot(st, testTaxonomy(t), Meta{})
	path := filepath.Join(t.TempDir(), "dup.nsnap")
	if err := WriteSnapshotFile(path, built, 1); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Snapshot{built, opened} {
		for _, c := range []struct {
			name string
			want []RuleID
		}{{"pepsi", []RuleID{0, 1}}, {"soft-drinks", nil}, {"chips", []RuleID{0}}, {"coke", []RuleID{1}}} {
			if got := s.QueryItem(nil, c.name, 0, 0); !slices.Equal(got, c.want) {
				t.Fatalf("%s: QueryItem(%s) = %v, want %v", s.SourceKind(), c.name, got, c.want)
			}
		}
		if got := s.Score(nil, []string{"pepsi", "coke"}, 0, 0); !slices.Equal(got, []RuleID{0, 1}) {
			t.Fatalf("%s: Score = %v, want [0 1]", s.SourceKind(), got)
		}
	}
	sameIndexes(t, "repeated items", opened, built)
}

// TestVersion2FileAnswersLikeBuild opens testdata/hostile-v2.nsnap — written
// by the version-2 encoder, posting sections and all, from hostileWorld's
// seed-10 world — and requires what building that world gives: the same
// derived indexes, the same /rules and /score bytes as documents and as
// frames, and, re-encoded, the same version-3 file.
func TestVersion2FileAnswersLikeBuild(t *testing.T) {
	opened, err := OpenSnapshotFile(filepath.Join("testdata", "hostile-v2.nsnap"), 0)
	if err != nil {
		t.Fatalf("opening a version-2 file: %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	st, tax, pool := hostileWorld(t, rng)
	built := BuildSnapshot(st, tax, Meta{Source: "hostile", MinSupport: 0.01, MinRI: 0.25})
	built.built = time.Unix(1_700_000_000, 0)
	if opened.Generation() != 3 || !opened.Info().Built.Equal(built.built) || opened.Len() != built.Len() {
		t.Fatalf("opened %+v, want generation 3, built %v, %d rules", opened.Info(), built.built, built.Len())
	}
	sameIndexes(t, "version-2 file", opened, built)

	hb, ho := serveSnapshot(t, built), serveSnapshot(t, opened)
	for _, q := range randomQueries(rng, pool) {
		for _, framed := range []bool{false, true} {
			want, got := q.send(t, hb, framed), q.send(t, ho, framed)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%+v framed=%v: version-2 file answers\n%q\nbuilt snapshot\n%q", q, framed, got.Body.Bytes(), want.Body.Bytes())
			}
		}
	}

	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, opened, 3); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, built, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("a version-2 file re-encodes to a different version-3 file than its build")
	}
}

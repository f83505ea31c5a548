package txdb

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
	"negmine/internal/item"
)

func sampleDB() *MemDB {
	return FromItemsets(
		[]item.Item{1, 2, 3},
		[]item.Item{2, 4},
		[]item.Item{1, 3, 5, 7},
		[]item.Item{},
		[]item.Item{9},
	)
}

func TestMemDBBasics(t *testing.T) {
	db := sampleDB()
	if db.Count() != 5 {
		t.Errorf("Count = %d", db.Count())
	}
	var tids []int64
	var total int
	err := db.Scan(func(tx Transaction) error {
		tids = append(tids, tx.TID)
		total += tx.Items.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 5 || tids[0] != 1 || tids[4] != 5 {
		t.Errorf("tids = %v", tids)
	}
	if total != 10 {
		t.Errorf("total items = %d", total)
	}
}

func TestNewMemDBValidates(t *testing.T) {
	_, err := NewMemDB([]Transaction{{TID: 1, Items: item.Itemset{3, 1}}})
	if err == nil {
		t.Fatal("unsorted itemset accepted")
	}
	db, err := NewMemDB([]Transaction{{TID: 1, Items: item.New(3, 1)}})
	if err != nil || db.Count() != 1 {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func TestScanAbort(t *testing.T) {
	db := sampleDB()
	boom := errors.New("boom")
	n := 0
	err := db.Scan(func(Transaction) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 2 {
		t.Errorf("err=%v n=%d", err, n)
	}
}

func TestScanShardPartition(t *testing.T) {
	db := sampleDB()
	seen := map[int64]int{}
	for s := 0; s < 3; s++ {
		err := db.ScanShard(s, 3, func(tx Transaction) error {
			seen[tx.TID]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != db.Count() {
		t.Errorf("shards covered %d txs, want %d", len(seen), db.Count())
	}
	for tid, n := range seen {
		if n != 1 {
			t.Errorf("tid %d seen %d times", tid, n)
		}
	}
	if err := db.ScanShard(3, 3, func(Transaction) error { return nil }); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestShardRangesConcatenateToScan pins the one partition rule: for every
// Sharder — in memory, on disk, and each through Instrument and Throttle —
// shard i of n visits exactly the positions ShardRange gives it, so the
// shards in shard order are Scan; a non-empty shard starts on a multiple of
// 64; and a shard outside [0, of) is still rejected.
func TestShardRangesConcatenateToScan(t *testing.T) {
	type sharderDB interface {
		DB
		Sharder
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		mem := &MemDB{}
		for i := 0; i < n; i++ {
			mem.Append(Transaction{TID: int64(i + 1), Items: item.New(item.Item(i%7), item.Item(7+i%3))})
		}
		path := filepath.Join(t.TempDir(), "r.nmtx")
		if err := WriteFile(path, mem); err != nil {
			t.Fatal(err)
		}
		file, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		if err := mem.Scan(func(tx Transaction) error { want = append(want, tx.TID); return nil }); err != nil {
			t.Fatal(err)
		}
		for name, db := range map[string]sharderDB{
			"mem": mem, "file": file,
			"instrumented mem": Instrument(mem), "instrumented file": Instrument(file),
			"throttled mem": Throttle(mem, 0), "throttled file": Throttle(file, 0),
		} {
			for _, of := range []int{1, 2, 5, 64} {
				var got []int64
				for shard := 0; shard < of; shard++ {
					lo, hi := ShardRange(n, shard, of)
					if lo > hi || hi > n || lo < hi && lo%64 != 0 || shard == 0 && lo != 0 || shard == of-1 && hi != n {
						t.Fatalf("ShardRange(%d, %d, %d) = [%d, %d)", n, shard, of, lo, hi)
					}
					if lo != len(got) {
						t.Fatalf("n %d: shard %d/%d starts at %d after %d transactions", n, shard, of, lo, len(got))
					}
					err := db.ScanShard(shard, of, func(tx Transaction) error { got = append(got, tx.TID); return nil })
					if err != nil {
						t.Fatal(err)
					}
					if hi != len(got) {
						t.Fatalf("%s n %d: shard %d/%d visited up to %d, want [%d, %d)", name, n, shard, of, len(got), lo, hi)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s n %d: %d shards concatenate to %v, Scan gives %v", name, n, of, got, want)
				}
			}
			for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}, {0, -1}} {
				if err := db.ScanShard(bad[0], bad[1], func(Transaction) error { return nil }); err == nil {
					t.Errorf("%s: shard %d/%d accepted", name, bad[0], bad[1])
				}
			}
		}
	}
}

func TestCollect(t *testing.T) {
	s, err := Collect(sampleDB())
	if err != nil {
		t.Fatal(err)
	}
	if s.Transactions != 5 || s.TotalItems != 10 || s.AvgLen != 2 || s.MaxItem != 9 {
		t.Errorf("Stats = %+v", s)
	}
	empty, err := Collect(FromItemsets())
	if err != nil || empty.Transactions != 0 || empty.AvgLen != 0 {
		t.Errorf("empty Stats = %+v err=%v", empty, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.nmtx")
	db := sampleDB()
	if err := WriteFile(path, db); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if f.Count() != db.Count() {
		t.Errorf("Count = %d, want %d", f.Count(), db.Count())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := db.Transactions()
	for i, tx := range got.Transactions() {
		if tx.TID != want[i].TID || !tx.Items.Equal(want[i].Items) {
			t.Errorf("record %d: got %v/%v want %v/%v", i, tx.TID, tx.Items, want[i].TID, want[i].Items)
		}
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	m := &MemDB{}
	tid := int64(0)
	for i := 0; i < 500; i++ {
		tid += int64(r.Intn(5)) // non-decreasing, sometimes equal
		n := r.Intn(12)
		items := make([]item.Item, n)
		for j := range items {
			items[j] = item.Item(r.Intn(100000))
		}
		m.Append(Transaction{TID: tid, Items: item.New(items...)})
	}
	path := filepath.Join(t.TempDir(), "r.nmtx")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != m.Count() {
		t.Fatalf("count %d != %d", got.Count(), m.Count())
	}
	for i := range m.Transactions() {
		a, b := m.Transactions()[i], got.Transactions()[i]
		if a.TID != b.TID || !a.Items.Equal(b.Items) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFileDBShardedScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.nmtx")
	if err := WriteFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for s := 0; s < 2; s++ {
		err := f.ScanShard(s, 2, func(tx Transaction) error {
			if seen[tx.TID] {
				t.Errorf("tid %d seen twice", tx.TID)
			}
			seen[tx.TID] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 5 {
		t.Errorf("covered %d of 5", len(seen))
	}
}

func TestFileDBScanReusesBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.nmtx")
	if err := WriteFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	f, _ := OpenFile(path)
	var first item.Itemset
	i := 0
	f.Scan(func(tx Transaction) error {
		if i == 0 {
			first = tx.Items // deliberately retained without Clone
		}
		i++
		return nil
	})
	// The buffer is documented as reused: retained slice must NOT be relied
	// upon. We simply document the behaviour; the final transaction has 1
	// item so the retained view is len 3 but contents changed is allowed.
	_ = first
}

func TestWriterTIDOrder(t *testing.T) {
	dir := t.TempDir()
	for name, txs := range map[string][]Transaction{
		"decreasing": {{TID: 5, Items: item.New(1)}, {TID: 4, Items: item.New(1)}},
		"negative":   {{TID: -1, Items: item.New(1)}},
	} {
		db, err := NewMemDB(txs)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(filepath.Join(dir, name+".nmtx"), db); err == nil {
			t.Errorf("WriteFile accepted a %s TID", name)
		}
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file opened")
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("GARBAGE-----"), 0o644)
	if _, err := OpenFile(bad); err == nil {
		t.Error("bad magic accepted")
	}
	short := filepath.Join(dir, "short")
	os.WriteFile(short, []byte("NM"), 0o644)
	if _, err := OpenFile(short); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.nmtx")
	if err := WriteFile(path, sampleDB()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644)
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err) // header intact
	}
	if err := f.Scan(func(Transaction) error { return nil }); err == nil {
		t.Error("truncated body scanned without error")
	}
}

func TestBasketsNamed(t *testing.T) {
	src := `
bread milk        # weekly shop
beer
bread beer chips
`
	dict := item.NewDictionary()
	db, err := ReadBaskets(strings.NewReader(src), dict)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count() != 3 {
		t.Fatalf("Count = %d", db.Count())
	}
	bread, _ := dict.Lookup("bread")
	if !db.Transactions()[2].Items.Contains(bread) {
		t.Error("third basket missing bread")
	}
	var buf bytes.Buffer
	if err := WriteBaskets(&buf, db, dict); err != nil {
		t.Fatal(err)
	}
	db2, err := ReadBaskets(&buf, dict)
	if err != nil || db2.Count() != 3 {
		t.Fatalf("round trip: %v count=%d", err, db2.Count())
	}
	for i := range db.Transactions() {
		if !db.Transactions()[i].Items.Equal(db2.Transactions()[i].Items) {
			t.Errorf("basket %d differs", i)
		}
	}
}

func TestBasketsInts(t *testing.T) {
	db, err := ReadBasketsInts(strings.NewReader("3 1 2\n\n7 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Count() != 2 {
		t.Fatalf("Count = %d", db.Count())
	}
	if !db.Transactions()[0].Items.Equal(item.New(1, 2, 3)) {
		t.Errorf("basket 0 = %v", db.Transactions()[0].Items)
	}
	if !db.Transactions()[1].Items.Equal(item.New(7)) {
		t.Errorf("basket 1 = %v (dup not removed)", db.Transactions()[1].Items)
	}
	if _, err := ReadBasketsInts(strings.NewReader("1 x\n")); err == nil {
		t.Error("non-numeric accepted")
	}
	if _, err := ReadBasketsInts(strings.NewReader("-4\n")); err == nil {
		t.Error("negative accepted")
	}
}

func TestInstrumented(t *testing.T) {
	db := Instrument(sampleDB())
	for i := 0; i < 3; i++ {
		if err := db.Scan(func(Transaction) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if db.Passes() != 3 {
		t.Errorf("Passes = %d", db.Passes())
	}
	if err := db.ScanShard(0, 2, func(Transaction) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if db.ShardScans() != 1 {
		t.Errorf("ShardScans = %d", db.ShardScans())
	}
	db.Reset()
	if db.Passes() != 0 || db.ShardScans() != 0 {
		t.Error("Reset failed")
	}
}

func TestThrottled(t *testing.T) {
	base := sampleDB()
	th := Throttle(base, 2*time.Millisecond) // 5 tx → ≥10ms per pass
	start := time.Now()
	n := 0
	if err := th.Scan(func(Transaction) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("scanned %d", n)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("throttled scan took %v, want ≥10ms", el)
	}
	// Sharded scans still cover everything exactly once.
	seen := map[int64]int{}
	for s := 0; s < 2; s++ {
		if err := th.ScanShard(s, 2, func(tx Transaction) error {
			seen[tx.TID]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 5 {
		t.Errorf("shards covered %d", len(seen))
	}
}

func TestGzipRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.nmtx.gz")
	db := sampleDB()
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != db.Count() {
		t.Errorf("Count = %d, want %d", f.Count(), db.Count())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Transactions()
	for i, tx := range got.Transactions() {
		if tx.TID != want[i].TID || !tx.Items.Equal(want[i].Items) {
			t.Errorf("record %d mismatch", i)
		}
	}
	// Sharded scans work through gzip too.
	seen := 0
	for s := 0; s < 2; s++ {
		if err := f.ScanShard(s, 2, func(Transaction) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if seen != db.Count() {
		t.Errorf("sharded gzip scan covered %d", seen)
	}
	// Compressed file actually is gzip (magic 0x1f8b) and smaller framing.
	raw, _ := os.ReadFile(path)
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Error("file is not gzip-framed")
	}
}

// TestGzipRejectsGarbage: a .gz that is not gzip, or is empty, fails with an
// error that names the file and says "gzip:" once.
func TestGzipRejectsGarbage(t *testing.T) {
	for _, content := range []string{"not gzip at all", ""} {
		path := filepath.Join(t.TempDir(), "bad.nmtx.gz")
		os.WriteFile(path, []byte(content), 0o644)
		_, err := OpenFile(path)
		if err == nil {
			t.Fatalf("%q as .gz accepted", content)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || strings.Count(msg, "gzip:") != 1 {
			t.Errorf("%q as .gz: error %q, want the path and one \"gzip:\"", content, msg)
		}
	}
}

// TestWriteFileAtomic: a write that fails midway, on a TID out of order after
// 20 000 good records or on an injected write fault, leaves no file where
// there was none and the previous file intact and openable where there was
// one, in both framings, and no temporary file behind.
func TestWriteFileAtomic(t *testing.T) {
	txs := make([]Transaction, 20001)
	for i := range txs {
		txs[i] = Transaction{TID: int64(i + 1), Items: item.New(item.Item(i%50), 60)}
	}
	txs[len(txs)-1].TID = 7
	backwards, err := NewMemDB(txs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"db.nmtx", "db.nmtx.gz"} {
		for _, fail := range []struct {
			how   string
			write func(path string) error
		}{
			{"out-of-order TID", func(path string) error { return WriteFile(path, backwards) }},
			{"write fault", func(path string) error {
				defer fault.Enable(atomicio.PointWrite, fault.Error("disk died"))()
				return WriteFile(path, sampleDB())
			}},
		} {
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			if fail.write(path) == nil {
				t.Fatalf("%s %s: WriteFile succeeded", name, fail.how)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s %s: a failed first write left %s (stat: %v)", name, fail.how, path, err)
			}
			if err := WriteFile(path, sampleDB()); err != nil {
				t.Fatal(err)
			}
			if fail.write(path) == nil {
				t.Fatalf("%s %s: WriteFile succeeded over a file", name, fail.how)
			}
			if _, err := OpenFile(path); err != nil {
				t.Fatalf("%s %s: previous file no longer opens: %v", name, fail.how, err)
			}
			got, err := Load(path)
			if err != nil || !slices.EqualFunc(got.Transactions(), sampleDB().Transactions(), func(a, b Transaction) bool {
				return a.TID == b.TID && a.Items.Equal(b.Items)
			}) {
				t.Fatalf("%s %s: previous file reads %v, %v", name, fail.how, got, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 1 {
				t.Fatalf("%s %s: %d directory entries, want only %s", name, fail.how, len(ents), name)
			}
		}
	}
}

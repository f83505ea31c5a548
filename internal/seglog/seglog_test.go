package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"negmine/internal/item"
	"negmine/internal/txdb"
)

// basket builds an itemset for tests.
func basket(ids ...int) item.Itemset {
	s := make(item.Itemset, len(ids))
	for i, id := range ids {
		s[i] = item.Item(id)
	}
	return item.New(s...)
}

// openTest opens a log in a fresh temp dir and closes it at cleanup.
func openTest(t *testing.T, opt Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

// collect scans every transaction out of a DB.
func collect(t *testing.T, db txdb.DB) []txdb.Transaction {
	t.Helper()
	var txs []txdb.Transaction
	err := db.Scan(func(tx txdb.Transaction) error {
		txs = append(txs, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return txs
}

func TestAppendAssignsTIDsAndScans(t *testing.T) {
	l, _ := openTest(t, Options{})
	first, last, err := l.Append([]item.Itemset{basket(1, 2), basket(3)})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 2 {
		t.Fatalf("TIDs [%d, %d], want [1, 2]", first, last)
	}
	first, last, err = l.Append([]item.Itemset{basket(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || last != 3 {
		t.Fatalf("second batch TIDs [%d, %d], want [3, 3]", first, last)
	}
	txs := collect(t, l)
	if len(txs) != 3 || l.Count() != 3 {
		t.Fatalf("scan found %d txs, Count %d, want 3", len(txs), l.Count())
	}
	for i, tx := range txs {
		if tx.TID != int64(i+1) {
			t.Fatalf("tx %d has TID %d", i, tx.TID)
		}
	}
	if !txs[2].Items.Equal(basket(2, 5)) {
		t.Fatalf("third tx items %v", txs[2].Items)
	}
}

func TestAppendRejectsBadInput(t *testing.T) {
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := l.Append([]item.Itemset{{3, 1}}); err == nil {
		t.Fatal("unsorted itemset accepted")
	}
	if got := l.Count(); got != 0 {
		t.Fatalf("rejected appends changed Count to %d", got)
	}
}

func TestSealAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1), basket(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// Sealing an empty active segment is a no-op.
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(7)}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments != 1 || st.SealedTxns != 2 || st.ActiveTxns != 1 || st.Seals != 1 {
		t.Fatalf("stats after seal: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	txs := collect(t, l2)
	if len(txs) != 3 {
		t.Fatalf("reopened log has %d txs, want 3", len(txs))
	}
	// TIDs keep increasing across the reopen.
	if first, _, err := l2.Append([]item.Itemset{basket(9)}); err != nil || first != 4 {
		t.Fatalf("append after reopen: first=%d err=%v, want 4/nil", first, err)
	}
}

func TestSealedViewsScanIndependently(t *testing.T) {
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1), basket(2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	views := l.SealedViews()
	if len(views) != 2 {
		t.Fatalf("%d views", len(views))
	}
	if views[0].Entry.MinTID != 1 || views[0].Entry.MaxTID != 2 ||
		views[1].Entry.MinTID != 3 || views[1].Entry.MaxTID != 3 {
		t.Fatalf("view TID ranges: %+v / %+v", views[0].Entry, views[1].Entry)
	}
	a := collect(t, views[0].DB)
	b := collect(t, views[1].DB)
	if len(a) != 2 || len(b) != 1 || views[0].DB.Count() != 2 {
		t.Fatalf("per-view scans: %d and %d txs", len(a), len(b))
	}
}

func TestCompactMergesSmallRun(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{CompactUnder: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append([]item.Itemset{basket(i), basket(i, i+10)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	before := collect(t, l)
	did, err := l.Compact()
	if err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	st := l.Stats()
	if st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	after := collect(t, l)
	if len(after) != len(before) {
		t.Fatalf("compaction changed tx count: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i].TID != before[i].TID || !after[i].Items.Equal(before[i].Items) {
			t.Fatalf("tx %d changed by compaction: %v vs %v", i, after[i], before[i])
		}
	}
	// Idempotent: a single merged segment has no run of two to merge.
	if did, err := l.Compact(); err != nil || did {
		t.Fatalf("second Compact: did=%v err=%v", did, err)
	}
	// The merged result survives a verified reopen; old files are gone.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != len(before) {
		t.Fatalf("reopen after compaction: %d txs", len(got))
	}
}

// fileCRC is the CRC-32C of the first size bytes of path as they are on
// disk: the read-back the checksums kept while writing are held to.
func fileCRC(t *testing.T, path string, size int64) uint32 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != size {
		t.Fatalf("%s: %d bytes on disk, want %d", path, len(raw), size)
	}
	return crc32.Checksum(raw, crcTable)
}

// TestRunningCRCMatchesDisk holds the checksums kept while writing to a
// read-back of the files: the active segment's across appends, a torn-tail
// recovery and a seal, and a merged segment's across its compaction frames.
func TestRunningCRCMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	opt := Options{CompactUnder: 1 << 20}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// ≈ 150 KB a segment, so the merge of three flushes more than one frame.
	batch := func(n int) []item.Itemset {
		out := make([]item.Itemset, n)
		for i := range out {
			out[i] = basket(i%50, 100+i%13, 1000+i%7)
		}
		return out
	}
	checkSealed := func(what string) {
		t.Helper()
		for _, e := range l.SealedEntries() {
			if got := fileCRC(t, segmentPath(dir, e.ID), e.Bytes); got != e.CRC {
				t.Fatalf("%s: segment %d: manifest CRC %08x, file %08x", what, e.ID, e.CRC, got)
			}
		}
	}
	if _, _, err := l.Append(batch(20000)); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	checkSealed("seal")
	if _, _, err := l.Append(batch(10000)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn append behind the acknowledged frame: recovery drops it and
	// resumes the checksum from the bytes it keeps.
	f, err := os.OpenFile(segmentPath(dir, 2), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame([]byte("torn"))[:7]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if l, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Stats().RecoveredDrop != 7 {
		t.Fatalf("recovery dropped %d bytes, want 7", l.Stats().RecoveredDrop)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := l.Append(batch(10000)); err != nil {
			t.Fatal(err)
		}
		if got := fileCRC(t, segmentPath(dir, l.active.id), l.active.size); got != l.active.crc {
			t.Fatalf("active segment: running CRC %08x, file %08x", l.active.crc, got)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(batch(20000)); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	checkSealed("recovery and seal")
	if did, err := l.Compact(); err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	if e := l.SealedEntries(); len(e) != 1 || e[0].Bytes <= 256<<10 {
		t.Fatalf("compaction left %+v, want one segment past the 256 KB flush", e)
	}
	checkSealed("compaction")
}

func TestCompactSkipsLargeSegments(t *testing.T) {
	l, _ := openTest(t, Options{CompactUnder: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append([]item.Itemset{basket(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if did, err := l.Compact(); err != nil || did {
		t.Fatalf("Compact merged segments above the threshold: did=%v err=%v", did, err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage half-frame at the active tail.
	path := segmentPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.RecoveredDrop != 3 {
		t.Fatalf("RecoveredDrop = %d, want 3", st.RecoveredDrop)
	}
	txs := collect(t, l2)
	if len(txs) != 1 || txs[0].TID != 1 {
		t.Fatalf("recovered txs: %v", txs)
	}
	// The truncated log accepts appends again.
	if first, _, err := l2.Append([]item.Itemset{basket(5)}); err != nil || first != 2 {
		t.Fatalf("append after recovery: first=%d err=%v", first, err)
	}
}

func TestCorruptSealedSegmentFailsVerifiedOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1, 2), basket(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{VerifyOnOpen: true}); err == nil {
		t.Fatal("verified open accepted a corrupt sealed segment")
	}
	// The cheap open succeeds (size matches) but scanning must fail loudly.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Scan(func(txdb.Transaction) error { return nil }); err == nil {
		t.Fatal("scan silently passed over a corrupt sealed segment")
	}
}

func TestMidFileCorruptionInActiveIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST frame's payload: acknowledged data strictly
	// inside the file. Recovery must refuse, not truncate.
	raw[segHeaderSize+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open silently dropped acknowledged mid-file data")
	}
}

// TestTornTailRuleSharedByActiveSegmentAndJournal runs the same damaged
// tails through the active segment's recovery and the dedup journal's
// parse: both must keep the same frames, or both refuse.
func TestTornTailRuleSharedByActiveSegmentAndJournal(t *testing.T) {
	// Three frames of each kind, one transaction or one record apiece.
	var segFrames, journalFrames [][]byte
	var enc txdb.Encoder
	for tid := int64(1); tid <= 3; tid++ {
		p, err := enc.AppendRecord(nil, txdb.Transaction{TID: tid, Items: basket(int(tid))})
		if err != nil {
			t.Fatal(err)
		}
		segFrames = append(segFrames, frame(p))
		rec, err := json.Marshal(dedupRecord{Op: "r", dedupEntry: dedupEntry{Key: "k", Seq: uint64(tid), First: tid, Last: tid, Txns: 1}})
		if err != nil {
			t.Fatal(err)
		}
		journalFrames = append(journalFrames, frame(rec))
	}
	absurd := binary.LittleEndian.AppendUint32(nil, maxFramePayload+1)
	absurd = append(absurd, 0, 0, 0, 0)
	garble := func(fr []byte) []byte {
		fr = bytes.Clone(fr)
		fr[len(fr)-1] ^= 0xff
		return fr
	}
	cases := []struct {
		name   string
		damage func(f [][]byte) [][]byte
		keep   int // frames kept; -1: corruption, Open must fail
	}{
		{"intact", func(f [][]byte) [][]byte { return f }, 3},
		{"torn header", func(f [][]byte) [][]byte { return [][]byte{f[0], f[1], f[2][:5]} }, 2},
		{"torn payload", func(f [][]byte) [][]byte { return [][]byte{f[0], f[1], f[2][:len(f[2])-1]} }, 2},
		{"garbled last frame", func(f [][]byte) [][]byte { return [][]byte{f[0], f[1], garble(f[2])} }, 2},
		{"absurd length at EOF", func(f [][]byte) [][]byte { return [][]byte{f[0], f[1], absurd} }, -1},
		{"absurd length mid-file", func(f [][]byte) [][]byte { return [][]byte{f[0], absurd, f[1], f[2]} }, -1},
		{"CRC mismatch mid-file", func(f [][]byte) [][]byte { return [][]byte{f[0], garble(f[1]), f[2]} }, -1},
	}
	for _, c := range cases {
		seg := bytes.Join(append([][]byte{segmentHeader()}, c.damage(segFrames)...), nil)
		rec, segErr := recoverActiveBytes(seg, "active")
		recs, journalErr := parseDedupJournal(bytes.Join(c.damage(journalFrames), nil), "journal")
		if c.keep < 0 {
			if segErr == nil || journalErr == nil {
				t.Errorf("%s: active segment err %v, journal err %v; want both corrupt", c.name, segErr, journalErr)
			}
			continue
		}
		if segErr != nil || journalErr != nil {
			t.Errorf("%s: active segment err %v, journal err %v; want both torn", c.name, segErr, journalErr)
			continue
		}
		if len(rec.txs) != c.keep || len(recs) != c.keep {
			t.Errorf("%s: active segment kept %d frames, journal %d; want %d", c.name, len(rec.txs), len(recs), c.keep)
		}
	}
}

func TestOrphanSegmentsRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A compaction killed before its manifest swap leaves a full segment
	// file with an id the manifest never heard of.
	orphan := segmentPath(dir, 99)
	if err := os.WriteFile(orphan, segmentHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "manifest.json.tmp-123")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived reopen", p)
		}
	}
	if txs := collect(t, l2); len(txs) != 1 {
		t.Fatalf("recovered %d txs", len(txs))
	}
}

func TestManifestCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	for name, content := range map[string]string{
		"not json":     "}{",
		"bad version":  `{"version": 99, "nextId": 3, "active": 2}`,
		"dup id":       `{"version": 1, "nextId": 3, "active": 1, "sealed": [{"id": 1, "txns": 1, "bytes": 10, "minTid": 1, "maxTid": 1}]}`,
		"stale nextId": `{"version": 1, "nextId": 2, "active": 2}`,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Errorf("%s: open accepted a corrupt manifest", name)
		}
	}
}

func TestScanSnapshotIgnoresConcurrentAppend(t *testing.T) {
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1), basket(2)}); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := l.Scan(func(tx txdb.Transaction) error {
		n++
		if n == 1 {
			// Appending mid-scan must not extend this scan's view.
			if _, _, err := l.Append([]item.Itemset{basket(9)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scan saw %d txs, want the 2 present at scan start", n)
	}
	if l.Count() != 3 {
		t.Fatalf("Count = %d after mid-scan append", l.Count())
	}
}

func TestConcurrentAppendAndScan(t *testing.T) {
	l, _ := openTest(t, Options{})
	done := make(chan error, 2)
	go func() {
		for i := 1; i <= 100; i++ {
			if _, _, err := l.Append([]item.Itemset{basket(i % 7), basket(i%7, 9)}); err != nil {
				done <- err
				return
			}
			// Seal while the scans run, so they cross segment boundaries.
			if i%8 == 0 {
				if err := l.Seal(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 50; i++ {
			prev := int64(0)
			err := l.Scan(func(tx txdb.Transaction) error {
				if tx.TID <= prev {
					return fmt.Errorf("TID %d after %d", tx.TID, prev)
				}
				prev = tx.TID
				return nil
			})
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Count(); got != 200 {
		t.Fatalf("Count = %d, want 200", got)
	}
}

// TestTornTailRecoveryWithConcurrentReader opens a log whose active tail was
// torn by a crash and immediately puts it under concurrent load: readers
// scan in a loop while a writer appends and seals. Recovery truncation must
// be complete before Open returns — no scan may ever observe the torn bytes
// or a gap — and the post-recovery TID sequence must continue exactly where
// the last durable frame left off.
func TestTornTailRecoveryWithConcurrentReader(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One sealed segment plus a surviving frame in the active tail.
	if _, _, err := l.Append([]item.Itemset{basket(1, 2), basket(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segmentPath(dir, 2), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xde, 0xad, 0xbe}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.RecoveredDrop != int64(len(torn)) {
		t.Fatalf("RecoveredDrop = %d, want %d", st.RecoveredDrop, len(torn))
	}

	const appends = 60
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, _, err := l2.Append([]item.Itemset{basket(i%7 + 1)}); err != nil {
				errc <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			if i%20 == 19 {
				if err := l2.Seal(); err != nil {
					errc <- fmt.Errorf("seal at %d: %w", i, err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				prev := int64(0)
				err := l2.Scan(func(tx txdb.Transaction) error {
					if tx.TID != prev+1 {
						return fmt.Errorf("TID %d after %d (gap or torn frame surfaced)", tx.TID, prev)
					}
					if len(tx.Items) == 0 {
						return fmt.Errorf("TID %d scanned with no items", tx.TID)
					}
					prev = tx.TID
					return nil
				})
				if err != nil {
					errc <- fmt.Errorf("reader %d scan %d: %w", r, i, err)
					return
				}
				if prev < 3 {
					errc <- fmt.Errorf("reader %d scan %d ended at TID %d, want ≥ 3 (recovered prefix)", r, i, prev)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// 3 durable pre-crash txns + the post-recovery appends, TIDs unbroken.
	if got := l2.Count(); got != 3+appends {
		t.Fatalf("Count = %d, want %d", got, 3+appends)
	}
	txs := collect(t, l2)
	for i, tx := range txs {
		if tx.TID != int64(i+1) {
			t.Fatalf("tx %d has TID %d", i, tx.TID)
		}
	}
}

// TestIndentedManifestStillOpens: a log whose manifest is indented, as older
// versions wrote it, opens with the same sealed segments and transactions,
// and the next seal rewrites it compact.
func TestIndentedManifestStillOpens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := l.Append([]item.Itemset{basket(i), basket(i, i+1)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	want, wantTxs := l.SealedEntries(), collect(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(raw, []byte("\n")) != 1 {
		t.Fatalf("manifest is not one compact line:\n%s", raw)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("indented manifest: %v", err)
	}
	defer l.Close()
	if got := l.SealedEntries(); !slices.Equal(got, want) {
		t.Fatalf("sealed entries %+v, want %+v", got, want)
	}
	if got := collect(t, l); fmt.Sprint(got) != fmt.Sprint(wantTxs) {
		t.Fatalf("transactions %v, want %v", got, wantTxs)
	}
	if _, _, err := l.Append([]item.Itemset{basket(9)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil || bytes.Count(raw, []byte("\n")) != 1 {
		t.Fatalf("the seal after opening did not rewrite the manifest compact (%v):\n%s", err, raw)
	}
}

// BenchmarkStoreManifest stores the manifest of a log of 1 000 sealed
// segments, what every seal of such a log writes; bytes/op is its size.
func BenchmarkStoreManifest(b *testing.B) {
	m := &manifest{Version: manifestVersion, NextID: 1002, Active: 1001}
	for id := int64(1); id <= 1000; id++ {
		m.Sealed = append(m.Sealed, SegmentEntry{ID: id, Txns: 250, Bytes: 9000 + id, CRC: uint32(id * 2654435761), MinTID: 250*id - 249, MaxTID: 250 * id})
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := storeManifest(dir, m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(filepath.Join(dir, manifestName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes/op")
}

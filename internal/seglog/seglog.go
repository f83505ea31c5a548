// Package seglog implements the system's write path: a WAL-backed,
// segmented transaction log. Appends go to a single active segment file as
// CRC-framed batches and are fsynced before they are acknowledged; Seal
// turns the active segment into an immutable, manifest-listed segment and
// opens a fresh one; Compact merges runs of small sealed segments. The
// manifest is replaced atomically (internal/atomicio), so a crash at any
// point leaves the log recoverable: sealed data is never touched, and the
// active segment is truncated at the first torn frame — which by the
// fsync-before-ack contract can only contain unacknowledged transactions.
//
// Sealed segments are immutable and only ever added at the end, which is
// what lets internal/incr keep a vertical index of the sealed log and read
// only the segments that are new since the last refresh.
package seglog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// Failpoints (see internal/fault). PointAppend is evaluated at the start of
// every Append and again between the frame write and the fsync (a panic
// there models a process killed after the bytes landed but before the
// acknowledgement). PointSeal and PointCompact are evaluated at entry and
// again just before the manifest swap, bracketing the window where a kill
// leaves on-disk state ahead of the manifest.
const (
	PointAppend  = "seglog.append"
	PointSeal    = "seglog.seal"
	PointCompact = "seglog.compact"
	// PointFence is evaluated inside every epoch-checked append, before the
	// epoch comparison; arming it with an error makes the append behave as if
	// the writer had been fenced.
	PointFence = "seglog.fence"
	// PointReplicate is evaluated once per sealed segment a Shipper is about
	// to publish to the replication store (see replicate.go).
	PointReplicate = "seglog.replicate"
)

// ErrFenced reports an append carrying a stale epoch token: the log has been
// promoted past the writer. The write was rejected and nothing was appended.
var ErrFenced = errors.New("seglog: append fenced (stale epoch)")

// ErrStaleSeq reports a keyed append whose sequence number is at or below the
// newest its idempotency key holds in the dedup window, and is not itself
// retained there: the client has moved past it, so replaying it would reorder
// history.
var ErrStaleSeq = errors.New("seglog: stale sequence for idempotency key")

// ErrOutOfSync reports a replicated append or segment adoption that does not
// continue the log's TID sequence exactly.
var ErrOutOfSync = errors.New("seglog: replica out of sync with primary stream")

// DefaultCompactUnder is the sealed-segment size below which Compact
// considers a segment small when Options.CompactUnder is zero.
const DefaultCompactUnder = 1 << 20

// Options configures a Log.
type Options struct {
	// CompactUnder marks sealed segments smaller than this many bytes as
	// compaction candidates (0 = DefaultCompactUnder).
	CompactUnder int64
	// VerifyOnOpen fully re-reads every sealed segment at Open and checks
	// it against its manifest entry (size, CRC, count, TID range) instead
	// of the default existence + size check.
	VerifyOnOpen bool
	// DedupWindow bounds the number of (key, seq) idempotency entries the
	// log retains for exactly-once keyed appends (see Batch.Key); 0 disables
	// deduplication. Entries are evicted FIFO, so exactly-once only holds
	// for retries arriving within the window's retention horizon.
	DedupWindow int
}

// Stats is a point-in-time summary of a Log, exported by negmined's
// /metrics ingest block.
type Stats struct {
	Segments      int   // sealed segments
	SealedBytes   int64 // bytes across sealed segment files
	SealedTxns    int   // transactions in sealed segments
	ActiveTxns    int   // transactions in the active segment
	ActiveBytes   int64 // bytes in the active segment file
	NextTID       int64 // TID the next appended transaction gets
	TxnsAppended  int64 // transactions appended since Open
	Seals         int64 // seals since Open
	Compactions   int64 // compactions since Open
	RecoveredDrop int64 // torn-tail bytes discarded during Open
	Epoch         int64 // current fencing epoch
	FencedAppends int64 // appends rejected with ErrFenced since Open
	DedupHits     int64 // keyed appends answered from the dedup window
	DedupEntries  int   // live entries in the dedup window
}

// SegmentView is a read-only handle on one sealed segment: its manifest
// entry plus a txdb.DB that re-reads the immutable file on every scan.
type SegmentView struct {
	Entry SegmentEntry
	DB    txdb.DB
}

// Log is a segmented transaction log rooted at a directory. All methods are
// safe for concurrent use; reads (Scan, SealedViews) never block appends
// for longer than a state snapshot.
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	man       manifest
	active    activeSegment
	nextTID   int64
	appended  int64
	seals     int64
	compacts  int64
	recovered int64 // torn bytes dropped at Open
	fenced    int64 // appends rejected with ErrFenced
	dedupHits int64 // keyed appends answered from the window
	broken    error // set when on-disk and in-memory state may disagree

	window *dedupWindow // nil when Options.DedupWindow == 0

	// notifyCh is closed and replaced on every durable append, waking tail
	// followers blocked in a long poll. Guarded by mu.
	notifyCh chan struct{}
}

// activeSegment is the in-memory state of the appendable segment.
type activeSegment struct {
	id     int64
	f      *os.File
	size   int64
	crc    uint32 // CRC-32C of the file's size bytes, kept as frames commit
	txns   int
	minTID int64
	enc    txdb.Encoder
	// txs mirrors the file's content. Readers copy the slice header under
	// the log lock and iterate without it: elements once appended are never
	// mutated, so a concurrent append (even one that reallocates) cannot
	// disturb a reader's view.
	txs []txdb.Transaction
}

// Open opens (or initializes) the segment log in dir, recovering from any
// previous crash: the manifest names the surviving segments, orphan files
// from killed seals/compactions are removed, and the active segment is
// truncated at the first torn frame.
func Open(dir string, opt Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}
	man, err := loadManifest(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		man = &manifest{Version: manifestVersion, NextID: 2, Active: 1}
		if err := storeManifest(dir, man); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	}
	l.man = *man

	if err := l.removeOrphans(); err != nil {
		return nil, err
	}
	maxTID := int64(0)
	for _, e := range l.man.Sealed {
		check := statSegment
		if opt.VerifyOnOpen {
			check = verifySegment
		}
		if err := check(dir, e); err != nil {
			return nil, err
		}
		if e.MaxTID > maxTID {
			maxTID = e.MaxTID
		}
	}
	if err := l.recoverActive(); err != nil {
		return nil, err
	}
	if last := l.active.enc.LastTID(); last > maxTID {
		maxTID = last
	}
	l.nextTID = maxTID + 1
	l.notifyCh = make(chan struct{})
	if opt.DedupWindow > 0 {
		w, err := openDedupWindow(dir, opt.DedupWindow, l.nextTID)
		if err != nil {
			return nil, err
		}
		l.window = w
	}
	return l, nil
}

// removeOrphans deletes segment files the manifest does not reference —
// leftovers of a seal or compaction killed before its manifest swap — and
// stray atomicio temp files.
func (l *Log) removeOrphans() error {
	known := map[string]bool{segmentPath(l.dir, l.man.Active): true}
	for _, e := range l.man.Sealed {
		known[segmentPath(l.dir, e.ID)] = true
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		path := filepath.Join(l.dir, name)
		isSeg := strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".nmsl")
		isTmp := strings.Contains(name, ".tmp-")
		if (isSeg && !known[path]) || isTmp {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// recoverActive opens the active segment file, truncating any torn tail,
// and rebuilds the in-memory mirror and encoder state.
func (l *Log) recoverActive() error {
	path := segmentPath(l.dir, l.man.Active)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return err
	}
	rec, err := recoverActiveBytes(raw, path)
	if err != nil {
		f.Close()
		return err
	}
	if rec.size == 0 {
		// Empty or torn-header file: (re)write the header.
		hdr := segmentHeader()
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(hdr, 0)
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return err
		}
		rec.size, rec.crc = int64(len(hdr)), crc32.Checksum(hdr, crcTable)
	} else if int64(len(raw)) != rec.size {
		if err := f.Truncate(rec.size); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	l.active = activeSegment{
		id:     l.man.Active,
		f:      f,
		size:   rec.size,
		crc:    rec.crc,
		txns:   len(rec.txs),
		minTID: rec.minTID,
		txs:    rec.txs,
	}
	if len(rec.txs) > 0 {
		l.active.enc.ResumeAt(rec.maxTID)
	}
	l.recovered += rec.dropped
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close fsyncs and closes the active segment file. The log must not be
// used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active.f == nil {
		return nil
	}
	err := l.active.f.Sync()
	if cerr := l.active.f.Close(); err == nil {
		err = cerr
	}
	l.active.f = nil
	if l.window != nil {
		if cerr := l.window.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Batch is one atomic append request. The zero value of the optional fields
// means "plain append": no epoch check, no deduplication.
type Batch struct {
	// Baskets are the itemsets to append, one transaction each. Must be
	// non-empty; itemsets must be valid (sorted, unique, non-negative).
	Baskets []item.Itemset
	// Epoch, when >= 0, is the fencing token the writer believes it holds;
	// the append is rejected with ErrFenced unless it equals the log's
	// current epoch. Epoch < 0 skips the check (single-writer deployments).
	Epoch int64
	// Key, when non-empty, is the client's idempotency key: a retry of an
	// already-applied (Key, Seq) returns the original TID range with
	// Duplicate set instead of appending again. Requires Options.DedupWindow.
	Key string
	// Seq orders batches under one Key. A retry must reuse the original Seq.
	Seq uint64
}

// AppendResult is the acknowledgement of an AppendBatch.
type AppendResult struct {
	First, Last int64 // assigned TID range (inclusive)
	Duplicate   bool  // true when answered from the dedup window, nothing appended
}

// Append atomically appends a batch of baskets as one durable frame,
// assigning consecutive TIDs. It returns the first and last TID assigned
// once the frame is fsynced — an Append that returned is an Append that
// survives a crash. Empty batches are rejected; itemsets must be valid
// (sorted, unique, non-negative).
func (l *Log) Append(baskets []item.Itemset) (first, last int64, err error) {
	res, err := l.AppendBatch(Batch{Baskets: baskets, Epoch: -1})
	return res.First, res.Last, err
}

// AppendBatch is Append with fencing and exactly-once semantics: the batch
// is rejected when its epoch token is stale, and — when it carries an
// idempotency key — a retry of an already-durable batch is answered from the
// dedup window without appending anything.
func (l *Log) AppendBatch(b Batch) (AppendResult, error) {
	if len(b.Baskets) == 0 {
		return AppendResult{}, fmt.Errorf("seglog: empty batch")
	}
	for i, s := range b.Baskets {
		if err := s.Validate(); err != nil {
			return AppendResult{}, fmt.Errorf("seglog: basket %d: %w", i, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return AppendResult{}, fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	if b.Epoch >= 0 {
		if err := fault.Hit(PointFence); err != nil {
			l.fenced++
			return AppendResult{}, fmt.Errorf("%w: %v", ErrFenced, err)
		}
		if b.Epoch != l.man.Epoch {
			l.fenced++
			return AppendResult{}, fmt.Errorf("%w: writer epoch %d, log epoch %d", ErrFenced, b.Epoch, l.man.Epoch)
		}
	}
	if err := fault.Hit(PointAppend); err != nil {
		return AppendResult{}, fmt.Errorf("seglog: %w", err)
	}

	first := l.nextTID
	last := first + int64(len(b.Baskets)) - 1
	if b.Key != "" && l.window != nil {
		switch e, state := l.window.lookup(b.Key, b.Seq); state {
		case dedupDuplicate:
			l.dedupHits++
			return AppendResult{First: e.First, Last: e.Last, Duplicate: true}, nil
		case dedupStale:
			return AppendResult{}, fmt.Errorf("%w: key %q seq %d", ErrStaleSeq, b.Key, b.Seq)
		}
		// Fresh: reserve the entry durably *before* the data append. Recovery
		// drops reservations whose TID range did not make it into the log, so
		// a crash anywhere in this sequence keeps journal and log agreeing.
		if err := l.window.reserve(dedupEntry{Key: b.Key, Seq: b.Seq, First: first, Last: last, Txns: len(b.Baskets)}); err != nil {
			return AppendResult{}, err
		}
	}

	txs := make([]txdb.Transaction, len(b.Baskets))
	for i, s := range b.Baskets {
		txs[i] = txdb.Transaction{TID: first + int64(i), Items: s.Clone()}
	}
	if err := l.appendTxsLocked(txs); err != nil {
		if b.Key != "" && l.window != nil {
			// The reservation must not survive a failed append: a later batch
			// may reuse the TID range. If even the cancel cannot be made
			// durable, stop the log — better unavailable than duplicated.
			if cerr := l.window.cancel(b.Key, b.Seq); cerr != nil {
				l.broken = cerr
			}
		}
		return AppendResult{}, err
	}
	if b.Key != "" && l.window != nil {
		l.window.commit(dedupEntry{Key: b.Key, Seq: b.Seq, First: first, Last: last, Txns: len(txs)})
	}
	l.postAppendLocked(first, last)
	return AppendResult{First: first, Last: last}, nil
}

// appendTxsLocked writes txs (whose TIDs must continue the log exactly) as
// one durable frame. It neither assigns TIDs nor touches nextTID bookkeeping
// beyond the active-segment state; callers follow up with postAppendLocked.
func (l *Log) appendTxsLocked(txs []txdb.Transaction) error {
	// Encode against a scratch copy of the encoder so a failed write leaves
	// the committed stream state untouched.
	enc := l.active.enc
	var payload []byte
	var err error
	for _, tx := range txs {
		if payload, err = enc.AppendRecord(payload, tx); err != nil {
			return err
		}
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("seglog: batch encodes to %d bytes, above the %d frame bound — split it", len(payload), maxFramePayload)
	}

	fr := frame(payload)
	startSize := l.active.size
	undo := func(werr error) error {
		// Claw back partially written bytes so in-memory and on-disk state
		// agree; if even that fails the log refuses further writes.
		if terr := l.active.f.Truncate(startSize); terr != nil {
			l.broken = terr
		}
		return werr
	}
	// Two writes with the failpoint between them: a panic (kill) on the
	// second evaluation leaves a torn frame on disk, exactly what a crash
	// mid-append produces. Nothing has been acknowledged at that point.
	half := len(fr) / 2
	if _, err := l.active.f.WriteAt(fr[:half], startSize); err != nil {
		return undo(err)
	}
	if err := fault.Hit(PointAppend); err != nil {
		return undo(fmt.Errorf("seglog: %w", err))
	}
	if _, err := l.active.f.WriteAt(fr[half:], startSize+int64(half)); err != nil {
		return undo(err)
	}
	if err := l.active.f.Sync(); err != nil {
		return undo(err)
	}

	// Durable: commit the in-memory state.
	l.active.enc = enc
	l.active.size += int64(len(fr))
	l.active.crc = crc32.Update(l.active.crc, crcTable, fr)
	l.active.txns += len(txs)
	if l.active.minTID == 0 {
		l.active.minTID = txs[0].TID
	}
	l.active.txs = append(l.active.txs, txs...)
	return nil
}

// postAppendLocked finishes a durable append: advances the TID cursor and
// wakes tail followers.
func (l *Log) postAppendLocked(first, last int64) {
	l.nextTID = last + 1
	l.appended += last - first + 1
	close(l.notifyCh)
	l.notifyCh = make(chan struct{})
}

// AppendReplicated appends transactions received from a primary's tail
// stream, preserving their TIDs exactly. The batch must continue the log's
// TID sequence with no gap (ErrOutOfSync otherwise); items are trusted as
// already validated by the primary. Used by the standby only — a log taking
// replicated appends must not take client appends.
func (l *Log) AppendReplicated(txs []txdb.Transaction) (AppendResult, error) {
	if len(txs) == 0 {
		return AppendResult{}, fmt.Errorf("seglog: empty replicated batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return AppendResult{}, fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	first, last := txs[0].TID, txs[len(txs)-1].TID
	if first != l.nextTID {
		return AppendResult{}, fmt.Errorf("%w: replicated batch starts at TID %d, log expects %d", ErrOutOfSync, first, l.nextTID)
	}
	for i, tx := range txs {
		if tx.TID != first+int64(i) {
			return AppendResult{}, fmt.Errorf("%w: replicated batch has non-consecutive TID %d at index %d", ErrOutOfSync, tx.TID, i)
		}
	}
	if err := fault.Hit(PointAppend); err != nil {
		return AppendResult{}, fmt.Errorf("seglog: %w", err)
	}
	if err := l.appendTxsLocked(txs); err != nil {
		return AppendResult{}, err
	}
	l.postAppendLocked(first, last)
	return AppendResult{First: first, Last: last}, nil
}

// Seal makes the active segment immutable and opens a fresh one. Sealing an
// empty active segment is a no-op. The on-disk order is: fsync the segment,
// commit the manifest, create the new active file — a crash between any two
// steps recovers to a consistent log with nothing lost.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

func (l *Log) sealLocked() error {
	if l.broken != nil {
		return fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	if l.active.txns == 0 {
		return nil
	}
	if err := fault.Hit(PointSeal); err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if err := l.active.f.Sync(); err != nil {
		return err
	}
	entry := SegmentEntry{
		ID:     l.active.id,
		Txns:   l.active.txns,
		Bytes:  l.active.size,
		CRC:    l.active.crc,
		MinTID: l.active.minTID,
		MaxTID: l.active.enc.LastTID(),
	}
	if err := fault.Hit(PointSeal); err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	next := l.man
	next.Sealed = append(append([]SegmentEntry(nil), l.man.Sealed...), entry)
	next.Active = l.man.NextID
	next.NextID = l.man.NextID + 1
	if err := storeManifest(l.dir, &next); err != nil {
		return err
	}
	// Manifest committed: the old active segment is sealed no matter what
	// happens from here on. Swap in a fresh active segment.
	if err := l.active.f.Close(); err != nil {
		l.broken = err
		return err
	}
	l.man = next
	l.seals++
	f, err := os.OpenFile(segmentPath(l.dir, next.Active), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.broken = err
		return err
	}
	hdr := segmentHeader()
	if _, err := f.WriteAt(hdr, 0); err != nil {
		l.broken = err
		return err
	}
	if err := f.Sync(); err != nil {
		l.broken = err
		return err
	}
	l.active = activeSegment{id: next.Active, f: f, size: int64(len(hdr)), crc: crc32.Checksum(hdr, crcTable)}
	return nil
}

// Compact merges the first run of at least two adjacent sealed segments
// that are each smaller than Options.CompactUnder into one new segment,
// preserving scan order. It reports whether a merge happened. The merged
// file is written and fsynced before the manifest swap; a kill in between
// leaves an orphan the next Open removes.
func (l *Log) Compact() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return false, fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	threshold := l.opt.CompactUnder
	if threshold <= 0 {
		threshold = DefaultCompactUnder
	}
	runStart, runEnd := -1, -1
	for i, e := range l.man.Sealed {
		if e.Bytes < threshold {
			if runStart < 0 {
				runStart = i
			}
			runEnd = i + 1
		} else if runEnd-runStart >= 2 {
			break
		} else {
			runStart, runEnd = -1, -1
		}
	}
	if runStart < 0 || runEnd-runStart < 2 {
		return false, nil
	}
	if err := fault.Hit(PointCompact); err != nil {
		return false, fmt.Errorf("seglog: %w", err)
	}
	run := l.man.Sealed[runStart:runEnd]
	merged, err := l.writeMerged(l.man.NextID, run)
	if err != nil {
		return false, err
	}
	if err := fault.Hit(PointCompact); err != nil {
		return false, fmt.Errorf("seglog: %w", err)
	}
	next := l.man
	next.Sealed = make([]SegmentEntry, 0, len(l.man.Sealed)-len(run)+1)
	next.Sealed = append(next.Sealed, l.man.Sealed[:runStart]...)
	next.Sealed = append(next.Sealed, merged)
	next.Sealed = append(next.Sealed, l.man.Sealed[runEnd:]...)
	next.NextID = l.man.NextID + 1
	if err := storeManifest(l.dir, &next); err != nil {
		return false, err
	}
	l.man = next
	l.compacts++
	for _, e := range run {
		_ = os.Remove(segmentPath(l.dir, e.ID)) // best-effort; Open reaps leftovers
	}
	return true, nil
}

// writeMerged streams the run's transactions into a new sealed segment file
// and returns its manifest entry, its CRC hashed from the bytes as written.
func (l *Log) writeMerged(id int64, run []SegmentEntry) (SegmentEntry, error) {
	path := segmentPath(l.dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return SegmentEntry{}, err
	}
	defer f.Close()
	hdr := segmentHeader()
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return SegmentEntry{}, err
	}
	size, crc := int64(len(hdr)), crc32.Checksum(hdr, crcTable)
	var enc txdb.Encoder
	var payload []byte
	const flushAt = 256 << 10
	flush := func() error {
		if len(payload) == 0 {
			return nil
		}
		fr := frame(payload)
		if _, err := f.WriteAt(fr, size); err != nil {
			return err
		}
		size += int64(len(fr))
		crc = crc32.Update(crc, crcTable, fr)
		payload = payload[:0]
		return nil
	}
	txns := 0
	for _, e := range run {
		src := &segDB{path: segmentPath(l.dir, e.ID), txns: e.Txns}
		err := src.Scan(func(tx txdb.Transaction) error {
			var err error
			if payload, err = enc.AppendRecord(payload, tx); err != nil {
				return err
			}
			txns++
			if len(payload) >= flushAt {
				return flush()
			}
			return nil
		})
		if err != nil {
			return SegmentEntry{}, err
		}
	}
	if err := flush(); err != nil {
		return SegmentEntry{}, err
	}
	if err := f.Sync(); err != nil {
		return SegmentEntry{}, err
	}
	return SegmentEntry{
		ID:     id,
		Txns:   txns,
		Bytes:  size,
		CRC:    crc,
		MinTID: run[0].MinTID,
		MaxTID: run[len(run)-1].MaxTID,
	}, nil
}

// SealedViews returns read-only handles on the sealed segments in scan
// order. The views stay valid until the segments they name are compacted
// away.
func (l *Log) SealedViews() []SegmentView {
	l.mu.Lock()
	defer l.mu.Unlock()
	views := make([]SegmentView, len(l.man.Sealed))
	for i, e := range l.man.Sealed {
		views[i] = SegmentView{Entry: e, DB: &segDB{path: segmentPath(l.dir, e.ID), txns: e.Txns}}
	}
	return views
}

// Count returns the total number of transactions (sealed + active).
func (l *Log) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.active.txns
	for _, e := range l.man.Sealed {
		n += e.Txns
	}
	return n
}

// Scan streams every transaction — sealed segments in manifest order, then
// the active segment — satisfying txdb.DB. The view is the log state at
// call time; concurrent appends are not observed mid-scan.
func (l *Log) Scan(fn func(txdb.Transaction) error) error {
	l.mu.Lock()
	sealed := append([]SegmentEntry(nil), l.man.Sealed...)
	activeTxs := l.active.txs
	l.mu.Unlock()
	for _, e := range sealed {
		db := &segDB{path: segmentPath(l.dir, e.ID), txns: e.Txns}
		if err := db.Scan(fn); err != nil {
			return err
		}
	}
	for _, tx := range activeTxs {
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// ScanFrom streams every transaction with TID > after in TID order, skipping
// whole sealed segments the cursor has passed. Like Scan, the view is the
// log state at call time. fn returning an error stops the scan and returns
// that error.
func (l *Log) ScanFrom(after int64, fn func(txdb.Transaction) error) error {
	l.mu.Lock()
	sealed := append([]SegmentEntry(nil), l.man.Sealed...)
	activeTxs := l.active.txs
	l.mu.Unlock()
	for _, e := range sealed {
		if e.MaxTID <= after {
			continue
		}
		db := &segDB{path: segmentPath(l.dir, e.ID), txns: e.Txns}
		err := db.Scan(func(tx txdb.Transaction) error {
			if tx.TID <= after {
				return nil
			}
			return fn(tx)
		})
		if err != nil {
			return err
		}
	}
	for _, tx := range activeTxs {
		if tx.TID <= after {
			continue
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// NextTID returns the TID the next appended transaction would get.
func (l *Log) NextTID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextTID
}

// Epoch returns the log's current fencing epoch.
func (l *Log) Epoch() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man.Epoch
}

// AdvanceEpoch durably raises the log's fencing epoch to the given value,
// after which appends carrying any older epoch token fail with ErrFenced.
// The epoch can only move forward; advancing to the current value is a
// no-op, moving backwards an error.
func (l *Log) AdvanceEpoch(to int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	switch {
	case to == l.man.Epoch:
		return nil
	case to < l.man.Epoch:
		return fmt.Errorf("seglog: cannot lower epoch %d to %d", l.man.Epoch, to)
	}
	next := l.man
	next.Epoch = to
	if err := storeManifest(l.dir, &next); err != nil {
		return err
	}
	l.man = next
	return nil
}

// AppendNotify returns a channel that is closed when the next append lands,
// the building block of the tail endpoint's long poll. Callers must obtain
// the channel *before* checking for new data.
func (l *Log) AppendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notifyCh
}

// SealedEntries returns a copy of the manifest's sealed-segment list in scan
// order.
func (l *Log) SealedEntries() []SegmentEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SegmentEntry(nil), l.man.Sealed...)
}

// ReadSealed returns the raw file bytes of one sealed segment, verified
// against its manifest entry — the payload a Shipper replicates.
func (l *Log) ReadSealed(e SegmentEntry) ([]byte, error) {
	raw, err := os.ReadFile(segmentPath(l.dir, e.ID))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) != e.Bytes {
		return nil, fmt.Errorf("seglog: segment %d: %d bytes on disk, manifest says %d", e.ID, len(raw), e.Bytes)
	}
	if crc := crc32.Checksum(raw, crcTable); crc != e.CRC {
		return nil, fmt.Errorf("seglog: segment %d: CRC %08x, manifest says %08x", e.ID, crc, e.CRC)
	}
	return raw, nil
}

// AdoptSealed installs a replicated sealed segment (its primary-side
// manifest entry plus raw file bytes) into this log. The segment must
// continue the log's TID sequence exactly: a segment entirely below the
// cursor is skipped (nil error — the tail stream already delivered it), one
// starting past the cursor is ErrOutOfSync (a gap), and one overlapping the
// cursor mid-segment is ErrOutOfSync too (the caller should fall back to the
// tail stream). A non-empty active segment is sealed first, so adopted
// segments always land behind it in TID order.
func (l *Log) AdoptSealed(e SegmentEntry, raw []byte) error {
	if int64(len(raw)) != e.Bytes {
		return fmt.Errorf("seglog: adopt segment: %d bytes, entry says %d", len(raw), e.Bytes)
	}
	if crc := crc32.Checksum(raw, crcTable); crc != e.CRC {
		return fmt.Errorf("seglog: adopt segment: CRC %08x, entry says %08x", crc, e.CRC)
	}
	var minTID, maxTID int64
	n, err := scanSegmentBytes(raw, "replicated segment", func(tx txdb.Transaction) error {
		if minTID == 0 {
			minTID = tx.TID
		}
		maxTID = tx.TID
		return nil
	})
	if err != nil {
		return err
	}
	if n != e.Txns || n == 0 {
		return fmt.Errorf("seglog: adopt segment: %d transactions, entry says %d", n, e.Txns)
	}
	if minTID != e.MinTID || maxTID != e.MaxTID {
		return fmt.Errorf("seglog: adopt segment: TID range [%d, %d], entry says [%d, %d]",
			minTID, maxTID, e.MinTID, e.MaxTID)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	if e.MaxTID < l.nextTID {
		return nil // already fully present
	}
	if e.MinTID != l.nextTID {
		return fmt.Errorf("%w: adopted segment covers [%d, %d], log expects %d next",
			ErrOutOfSync, e.MinTID, e.MaxTID, l.nextTID)
	}
	if l.active.txns > 0 {
		if err := l.sealLocked(); err != nil {
			return err
		}
	}
	id := l.man.NextID
	path := segmentPath(l.dir, id)
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	}); err != nil {
		return err
	}
	adopted := e
	adopted.ID = id
	next := l.man
	next.Sealed = append(append([]SegmentEntry(nil), l.man.Sealed...), adopted)
	next.NextID = id + 1
	if err := storeManifest(l.dir, &next); err != nil {
		_ = os.Remove(path) // best-effort; Open reaps orphans
		return err
	}
	l.man = next
	l.seals++
	l.appended += int64(e.Txns)
	l.nextTID = e.MaxTID + 1
	close(l.notifyCh)
	l.notifyCh = make(chan struct{})
	return nil
}

// DedupEntry is one retained idempotency-window entry, exported so the
// window can be replicated to a standby alongside the data it describes.
type DedupEntry struct {
	Key   string `json:"key"`
	Seq   uint64 `json:"seq"`
	First int64  `json:"first"`
	Last  int64  `json:"last"`
	Txns  int    `json:"txns"`
}

// DedupEntriesAfter returns, in insertion order, the retained dedup entries
// whose TID range ends after the cursor — the entries a tail follower at
// that cursor has not yet adopted.
func (l *Log) DedupEntriesAfter(after int64) []DedupEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.window == nil {
		return nil
	}
	var out []DedupEntry
	for _, e := range l.window.ordered() {
		if e.Last <= after {
			continue
		}
		out = append(out, DedupEntry(e))
	}
	return out
}

// AdoptDedup installs replicated dedup-window entries on a standby. Entries
// describing data the log does not hold yet are skipped (the caller re-sends
// them after the data arrives); already-known (key, seq) pairs are no-ops.
func (l *Log) AdoptDedup(entries []DedupEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.window == nil || len(entries) == 0 {
		return nil
	}
	if l.broken != nil {
		return fmt.Errorf("seglog: log needs reopening: %w", l.broken)
	}
	for _, e := range entries {
		if e.Last >= l.nextTID {
			continue // data not yet replicated; retry next round
		}
		if _, state := l.window.lookup(e.Key, e.Seq); state != dedupFresh {
			continue
		}
		de := dedupEntry(e)
		if err := l.window.reserve(de); err != nil {
			return err
		}
		l.window.commit(de)
	}
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:      len(l.man.Sealed),
		ActiveTxns:    l.active.txns,
		ActiveBytes:   l.active.size,
		NextTID:       l.nextTID,
		TxnsAppended:  l.appended,
		Seals:         l.seals,
		Compactions:   l.compacts,
		RecoveredDrop: l.recovered,
		Epoch:         l.man.Epoch,
		FencedAppends: l.fenced,
		DedupHits:     l.dedupHits,
	}
	if l.window != nil {
		st.DedupEntries = l.window.len()
	}
	for _, e := range l.man.Sealed {
		st.SealedBytes += e.Bytes
		st.SealedTxns += e.Txns
	}
	return st
}

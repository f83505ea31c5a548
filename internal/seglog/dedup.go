package seglog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"negmine/internal/atomicio"
)

// The dedup window makes keyed appends exactly-once across crashes. Every
// fresh (key, seq) is journaled to dedup.log — reserve record, fsync —
// *before* its data frame is appended, and the in-memory entry is committed
// only after the data is durable. Recovery replays the journal and drops any
// reservation whose TID range did not survive into the log (a crash between
// reserve and append), so journal and log can never disagree about whether a
// batch happened. A failed (not crashed) append cancels its reservation with
// a second journal record; if even the cancel cannot be made durable the log
// marks itself broken rather than risk a TID range being claimed twice.
//
// The window is bounded: entries beyond Options.DedupWindow are evicted
// FIFO in memory, and the journal is compacted (rewritten with only live
// entries) once it accumulates several windows' worth of records.

// dedupLogName is the journal file inside a log directory.
const dedupLogName = "dedup.log"

// dedupEntry mirrors DedupEntry; the unexported form is what the journal
// and window store.
type dedupEntry struct {
	Key   string `json:"key"`
	Seq   uint64 `json:"seq"`
	First int64  `json:"first"`
	Last  int64  `json:"last"`
	Txns  int    `json:"txns"`
}

// dedupRecord is one journal frame's payload.
type dedupRecord struct {
	Op string `json:"op"` // "r" reserve, "c" cancel
	dedupEntry
}

type dedupState int

const (
	dedupFresh     dedupState = iota // unseen (key, seq): append it
	dedupDuplicate                   // retained entry: answer from the window
	dedupStale                       // seq at or below a retired one: reject
)

type keySeq struct {
	key string
	seq uint64
}

// dedupWindow is the bounded idempotency window plus its journal handle.
// All methods are called with the owning Log's mutex held.
type dedupWindow struct {
	path string
	max  int

	f       *os.File
	entries map[keySeq]dedupEntry
	maxSeq  map[string]uint64 // highest seq ever committed per key
	fifo    []keySeq          // insertion order of live entries
	frames  int               // journal frames since the last compaction
}

// openDedupWindow replays (and compacts) dir's dedup journal. Reservations
// whose TID range reaches at or past nextTID describe batches that did not
// survive the crash and are dropped.
func openDedupWindow(dir string, max int, nextTID int64) (*dedupWindow, error) {
	w := &dedupWindow{
		path:    filepath.Join(dir, dedupLogName),
		max:     max,
		entries: map[keySeq]dedupEntry{},
		maxSeq:  map[string]uint64{},
	}
	raw, err := os.ReadFile(w.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	recs, err := parseDedupJournal(raw, w.path)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		ks := keySeq{r.Key, r.Seq}
		switch r.Op {
		case "r":
			if r.Last >= nextTID {
				continue // reserved, but the data append never became durable
			}
			w.insert(r.dedupEntry)
		case "c":
			if _, ok := w.entries[ks]; ok {
				delete(w.entries, ks)
				for i, f := range w.fifo {
					if f == ks {
						w.fifo = append(w.fifo[:i], w.fifo[i+1:]...)
						break
					}
				}
			}
		default:
			return nil, fmt.Errorf("seglog: %s: unknown dedup op %q", w.path, r.Op)
		}
	}
	// Start from a compact journal so recovery cost stays proportional to
	// the window, not to history.
	if err := w.compact(); err != nil {
		return nil, err
	}
	return w, nil
}

// parseDedupJournal decodes the journal's frames, tolerating a torn tail
// (the only damage a crash can produce) and rejecting interior corruption.
func parseDedupJournal(raw []byte, name string) ([]dedupRecord, error) {
	var recs []dedupRecord
	off := 0
	for off < len(raw) {
		rest := raw[off:]
		if len(rest) < frameHeaderSize {
			break // torn frame header at EOF
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxFramePayload {
			if off+frameHeaderSize+n >= len(raw) {
				break // torn length bytes at EOF
			}
			return nil, fmt.Errorf("seglog: %s: absurd dedup frame length %d at offset %d", name, n, off)
		}
		if len(rest) < frameHeaderSize+n {
			break // torn payload at EOF
		}
		payload := rest[frameHeaderSize : frameHeaderSize+n]
		want := binary.LittleEndian.Uint32(rest[4:8])
		if crc32.Checksum(payload, crcTable) != want {
			if off+frameHeaderSize+n == len(raw) {
				break // garbled final frame: torn mid-sector
			}
			return nil, fmt.Errorf("seglog: %s: dedup frame CRC mismatch at offset %d", name, off)
		}
		var r dedupRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil, fmt.Errorf("seglog: %s: dedup frame at offset %d: %w", name, off, err)
		}
		recs = append(recs, r)
		off += frameHeaderSize + n
	}
	return recs, nil
}

// insert registers a committed entry in memory, evicting FIFO past the
// bound. Journal writes are the caller's business.
func (w *dedupWindow) insert(e dedupEntry) {
	ks := keySeq{e.Key, e.Seq}
	if _, ok := w.entries[ks]; !ok {
		w.fifo = append(w.fifo, ks)
	}
	w.entries[ks] = e
	if e.Seq > w.maxSeq[e.Key] {
		w.maxSeq[e.Key] = e.Seq
	}
	for len(w.fifo) > w.max {
		old := w.fifo[0]
		w.fifo = w.fifo[1:]
		delete(w.entries, old)
		// maxSeq survives eviction on purpose: a retry older than the whole
		// retained window is rejected as stale, not silently re-applied.
	}
}

// lookup classifies a (key, seq) against the window.
func (w *dedupWindow) lookup(key string, seq uint64) (dedupEntry, dedupState) {
	ks := keySeq{key, seq}
	if e, ok := w.entries[ks]; ok {
		return e, dedupDuplicate
	}
	if maxSeq, ok := w.maxSeq[key]; ok && seq <= maxSeq {
		return dedupEntry{}, dedupStale
	}
	return dedupEntry{}, dedupFresh
}

// reserve durably journals an entry before its data append.
func (w *dedupWindow) reserve(e dedupEntry) error {
	return w.appendRecord(dedupRecord{Op: "r", dedupEntry: e})
}

// cancel durably journals that a reservation's append failed.
func (w *dedupWindow) cancel(key string, seq uint64) error {
	return w.appendRecord(dedupRecord{Op: "c", dedupEntry: dedupEntry{Key: key, Seq: seq}})
}

// commit registers a reserved entry whose data append became durable, and
// compacts the journal when it has outgrown the window severalfold.
func (w *dedupWindow) commit(e dedupEntry) {
	w.insert(e)
	if w.frames > 4*w.max {
		// Best-effort: a failed compaction keeps the (larger, still correct)
		// journal; the next commit retries.
		_ = w.compact()
	}
}

func (w *dedupWindow) appendRecord(r dedupRecord) error {
	if w.f == nil {
		f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		w.f = f
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame(payload)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.frames++
	return nil
}

// compact atomically rewrites the journal with only the live entries.
func (w *dedupWindow) compact() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	err := atomicio.WriteFile(w.path, func(out io.Writer) error {
		for _, ks := range w.fifo {
			payload, err := json.Marshal(dedupRecord{Op: "r", dedupEntry: w.entries[ks]})
			if err != nil {
				return err
			}
			if _, err := out.Write(frame(payload)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.frames = len(w.fifo)
	return nil
}

// ordered returns the live entries in insertion order.
func (w *dedupWindow) ordered() []dedupEntry {
	out := make([]dedupEntry, 0, len(w.fifo))
	for _, ks := range w.fifo {
		out = append(out, w.entries[ks])
	}
	return out
}

func (w *dedupWindow) len() int { return len(w.fifo) }

func (w *dedupWindow) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

package seglog

import (
	"encoding/json"
	"fmt"
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
//
// A seq at or below its key's high-water seq, and not itself in the window,
// is stale (ErrStaleSeq). The high-water seq is that of the key's newest live
// entry, so it lives exactly as long as the key has an entry in the window —
// which is what the compacted journal rebuilds. Beyond the window a retry is
// therefore not rejected as stale, before a restart or after one, and the
// per-key state stays within the window's bound.

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
	maxSeq  map[string]uint64 // per key with a live entry: its newest seq
	fifo    []keySeq          // insertion order of live entries
	frames  int               // journal frames since the last compaction
}

// openDedupWindow replays (and compacts) dir's dedup journal. Reservations
// whose TID range reaches at or past nextTID describe batches that did not
// survive the crash and are dropped, as are cancelled ones: a reserve and
// its cancel are journaled under one lock, so the cancel directly follows.
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
	for i, r := range recs {
		switch {
		case r.Op == "c":
			if i == 0 || recs[i-1].Op != "r" || recs[i-1].Key != r.Key || recs[i-1].Seq != r.Seq {
				return nil, fmt.Errorf("seglog: %s: dedup cancel of %q seq %d follows no reservation of it", w.path, r.Key, r.Seq)
			}
		case r.Op != "r":
			return nil, fmt.Errorf("seglog: %s: unknown dedup op %q", w.path, r.Op)
		case r.Last >= nextTID:
			// reserved, but the data append never became durable
		case i+1 < len(recs) && recs[i+1].Op == "c":
			// reserved, then cancelled: the data append failed
		default:
			w.insert(r.dedupEntry)
		}
	}
	// Start from a compact journal so recovery cost stays proportional to
	// the window, not to history.
	if err := w.compact(); err != nil {
		return nil, err
	}
	return w, nil
}

// parseDedupJournal decodes the journal's frames. A torn tail (the only
// damage a crash can produce) is dropped by the active segment's rule
// (walkFrames); interior corruption is an error.
func parseDedupJournal(raw []byte, name string) ([]dedupRecord, error) {
	var recs []dedupRecord
	_, err := walkFrames(raw, 0, name, true, func(payload []byte) error {
		var r dedupRecord
		err := json.Unmarshal(payload, &r)
		recs = append(recs, r)
		return err
	})
	return recs, err
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
		// A key's entries enter in rising seq order (lookup admits only seqs
		// above its newest), so the oldest entry is the key's newest only
		// when it is its last: the high-water seq goes with it.
		if w.maxSeq[old.key] == old.seq {
			delete(w.maxSeq, old.key)
		}
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

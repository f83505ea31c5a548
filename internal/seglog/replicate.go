// Seglog replication over an artifact store. The primary's Shipper publishes
// every sealed segment into a shared artifact store as a self-describing
// envelope (header JSON + the segment's raw file bytes); a standby's
// Follower adopts them in TID order via Log.AdoptSealed. Promotion is
// announced through the same store with an epoch envelope: any writer that
// observes a store epoch above its own token is fenced — the store is both
// the replication medium and the fencing authority, so a deposed primary
// cannot miss its own demotion.

package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"negmine/internal/artifact"
	"negmine/internal/fault"
)

// envelopeMagic opens every replication artifact.
const envelopeMagic = "NMRE"

// envelopeVersion is the current envelope format version.
const envelopeVersion = 1

// Envelope kinds.
const (
	EnvelopeSegment = "segment" // payload: a sealed segment's raw file bytes
	EnvelopeEpoch   = "epoch"   // no payload: an epoch bump (promotion)
)

// Envelope is the header of one replication artifact.
type Envelope struct {
	Kind  string        `json:"kind"`
	Epoch int64         `json:"epoch"`
	Node  string        `json:"node,omitempty"`
	Entry *SegmentEntry `json:"entry,omitempty"` // segment kind only
}

// encodeEnvelope renders magic + version + header length + header JSON,
// ready to be followed by the payload bytes.
func encodeEnvelope(h Envelope) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(envelopeMagic)+2*binary.MaxVarintLen64+len(hdr))
	buf = append(buf, envelopeMagic...)
	buf = binary.AppendUvarint(buf, envelopeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(hdr)))
	return append(buf, hdr...), nil
}

// decodeEnvelope splits an artifact's bytes into header and payload.
func decodeEnvelope(raw []byte) (Envelope, []byte, error) {
	var h Envelope
	if len(raw) < len(envelopeMagic) || string(raw[:len(envelopeMagic)]) != envelopeMagic {
		return h, nil, fmt.Errorf("seglog: replication artifact: bad magic")
	}
	rest := raw[len(envelopeMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 || ver != envelopeVersion {
		return h, nil, fmt.Errorf("seglog: replication artifact: unsupported version %d", ver)
	}
	rest = rest[n:]
	hlen, n := binary.Uvarint(rest)
	if n <= 0 || hlen > uint64(len(rest)-n) {
		return h, nil, fmt.Errorf("seglog: replication artifact: truncated header")
	}
	rest = rest[n:]
	dec := json.NewDecoder(bytes.NewReader(rest[:hlen]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("seglog: replication artifact header: %w", err)
	}
	return h, rest[hlen:], nil
}

// PublishEpoch announces a new epoch (a promotion) in the replication store.
func PublishEpoch(store *artifact.FS, epoch int64, node string) error {
	env, err := encodeEnvelope(Envelope{Kind: EnvelopeEpoch, Epoch: epoch, Node: node})
	if err != nil {
		return err
	}
	_, err = store.Put("seglog-epoch", func(_ uint64, w io.Writer) error {
		_, werr := w.Write(env)
		return werr
	})
	return err
}

// StoreEpoch returns the highest epoch recorded in the replication store
// (0 for a fresh store) by scanning envelope headers newest-first.
func StoreEpoch(store *artifact.FS) (int64, error) {
	infos, err := store.List()
	if err != nil {
		return 0, err
	}
	var max int64
	for _, info := range infos {
		h, _, err := readEnvelope(store, info.Generation)
		if err != nil {
			return 0, err
		}
		if h.Epoch > max {
			max = h.Epoch
		}
	}
	return max, nil
}

func readEnvelope(store *artifact.FS, gen uint64) (Envelope, []byte, error) {
	rc, _, err := store.Get(gen)
	if err != nil {
		return Envelope{}, nil, err
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return Envelope{}, nil, err
	}
	return decodeEnvelope(raw)
}

// Shipper publishes a primary's sealed segments into the replication store.
// It is single-goroutine; the Log it ships from may be appended to
// concurrently.
type Shipper struct {
	Log   *Log
	Store *artifact.FS
	Node  string
	// Epoch is the fencing token this writer holds. Observing a higher
	// epoch in the store means another node was promoted past us.
	Epoch int64

	seenGen    uint64 // store generations at or below this are processed
	shippedMax int64  // highest TID covered by a shipped (or found) segment
	inited     bool
}

// Sync performs one replication round: it scans the store for envelopes it
// has not seen (self-fencing on any higher epoch, and skipping segments
// already shipped — by us before a restart, or by a predecessor primary),
// then publishes every sealed segment above the shipped high-water mark.
// A fencing discovery durably advances the local log's epoch before
// returning ErrFenced, so in-flight appends holding the old token fail.
func (s *Shipper) Sync() (shipped int, err error) {
	infos, err := s.Store.List()
	if err != nil {
		return 0, err
	}
	maxEpoch := int64(0)
	for _, info := range infos {
		if info.Generation <= s.seenGen {
			continue
		}
		h, _, err := readEnvelope(s.Store, info.Generation)
		if err != nil {
			return 0, err
		}
		if h.Epoch > maxEpoch {
			maxEpoch = h.Epoch
		}
		if h.Kind == EnvelopeSegment && h.Entry != nil && h.Entry.MaxTID > s.shippedMax {
			s.shippedMax = h.Entry.MaxTID
		}
		s.seenGen = info.Generation
	}
	s.inited = true
	if maxEpoch > s.Epoch {
		if aerr := s.Log.AdvanceEpoch(maxEpoch); aerr != nil {
			return 0, aerr
		}
		return 0, fmt.Errorf("%w: store epoch %d above writer epoch %d", ErrFenced, maxEpoch, s.Epoch)
	}

	entries := s.Log.SealedEntries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].MinTID < entries[j].MinTID })
	for _, e := range entries {
		if e.MinTID <= s.shippedMax {
			continue // covered by an already-shipped range (or a compaction of one)
		}
		if err := fault.Hit(PointReplicate); err != nil {
			return shipped, fmt.Errorf("seglog: replicate: %w", err)
		}
		raw, err := s.Log.ReadSealed(e)
		if err != nil {
			return shipped, err
		}
		entry := e
		env, err := encodeEnvelope(Envelope{Kind: EnvelopeSegment, Epoch: s.Epoch, Node: s.Node, Entry: &entry})
		if err != nil {
			return shipped, err
		}
		info, err := s.Store.Put("seglog-segment", func(_ uint64, w io.Writer) error {
			if _, werr := w.Write(env); werr != nil {
				return werr
			}
			_, werr := w.Write(raw)
			return werr
		})
		if err != nil {
			return shipped, err
		}
		s.seenGen = info.Generation
		s.shippedMax = e.MaxTID
		shipped++
	}
	return shipped, nil
}

// Follower adopts replicated segments from the store into a standby's log.
type Follower struct {
	Log   *Log
	Store *artifact.FS

	seenGen uint64
}

// Sync performs one catch-up round: store envelopes are processed in
// generation order; segments continuing the log are adopted, ones the tail
// stream already delivered are skipped, and the round stops (without
// consuming) at the first segment that would leave a gap — the tail stream
// fills it and a later round retries. It returns how many segments were
// adopted and the highest epoch observed anywhere in the store so far.
func (f *Follower) Sync() (adopted int, maxEpoch int64, err error) {
	infos, err := f.Store.List()
	if err != nil {
		return 0, 0, err
	}
	for _, info := range infos {
		if info.Generation <= f.seenGen {
			continue
		}
		h, payload, err := readEnvelope(f.Store, info.Generation)
		if err != nil {
			return adopted, maxEpoch, err
		}
		if h.Epoch > maxEpoch {
			maxEpoch = h.Epoch
		}
		if h.Kind == EnvelopeSegment {
			if h.Entry == nil {
				return adopted, maxEpoch, fmt.Errorf("seglog: segment envelope without entry (store generation %d)", info.Generation)
			}
			before := f.Log.NextTID()
			switch err := f.Log.AdoptSealed(*h.Entry, payload); {
			case err == nil:
				if f.Log.NextTID() > before {
					adopted++ // actually installed (vs an already-present skip)
				}
			case errors.Is(err, ErrOutOfSync) && h.Entry.MinTID > f.Log.NextTID():
				// Gap: the open tail between our cursor and this segment has
				// not arrived yet. Leave this generation unconsumed.
				return adopted, maxEpoch, nil
			case errors.Is(err, ErrOutOfSync):
				// Overlaps our cursor mid-segment: the tail stream owns this
				// range. Consume and move on.
			default:
				return adopted, maxEpoch, err
			}
		}
		f.seenGen = info.Generation
	}
	return adopted, maxEpoch, nil
}

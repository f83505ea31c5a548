package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"negmine/internal/txdb"
)

// Segment file format
//
//	header:  magic "NMSL" | uvarint version (1)
//	frame:   uint32le payloadLen | uint32le crc32c(payload) | payload
//
// Each payload is a batch of transactions in the txdb uvarint record
// encoding (see txdb.Encoder); the encoder's TID-delta state runs across
// frame boundaries within a segment, so a segment decodes to exactly the
// stream that was appended to it. The per-frame CRC is what makes a torn
// append detectable: recovery truncates the active segment at the first
// frame whose bytes do not reach EOF intact.

const (
	segMagic   = "NMSL"
	segVersion = 1
	// segHeaderSize is the fixed header length (magic + version byte).
	segHeaderSize = len(segMagic) + 1
	// frameHeaderSize prefixes every frame: payload length + CRC.
	frameHeaderSize = 8
	// maxFramePayload bounds a single frame. Appends larger than this are
	// split by the caller; lengths above it in a file mean corruption.
	maxFramePayload = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentPath names segment id inside dir.
func segmentPath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.nmsl", id))
}

// segmentHeader returns the fixed file header.
func segmentHeader() []byte {
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	return binary.AppendUvarint(hdr, segVersion)
}

// frame assembles a complete frame (header + payload) around payload.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// walkFrames calls fn with the payload of each frame in raw[pos:], in file
// order, and returns where the last frame it accepted ends. A short header,
// a short payload, or a CRC failure in a frame that ends at EOF is a torn
// tail: with torn set the walk stops before it (the crash window of an
// append), and without it the tail is an error. A length above
// maxFramePayload with the whole header present, or a CRC failure before
// EOF, is corruption either way: a torn write leaves a strict prefix of a
// valid frame, so the header it shows is the writer's, and bytes behind a
// bad frame mean that frame was completed. fn's error is wrapped with the
// frame's index.
func walkFrames(raw []byte, pos int, name string, torn bool, fn func(payload []byte) error) (int, error) {
	for i := 0; pos < len(raw); i++ {
		damage := "truncated header"
		if len(raw)-pos >= frameHeaderSize {
			ln := int(binary.LittleEndian.Uint32(raw[pos:]))
			if ln > maxFramePayload {
				return pos, fmt.Errorf("seglog: %s: frame %d: absurd payload length %d", name, i, ln)
			}
			next := pos + frameHeaderSize + ln
			damage = "truncated payload"
			if next <= len(raw) {
				payload := raw[pos+frameHeaderSize : next]
				if crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(raw[pos+4:]) {
					if err := fn(payload); err != nil {
						return pos, fmt.Errorf("seglog: %s: frame %d: %w", name, i, err)
					}
					pos = next
					continue
				}
				if next < len(raw) {
					return pos, fmt.Errorf("seglog: %s: frame %d: CRC mismatch in acknowledged data", name, i)
				}
				damage = "CRC mismatch"
			}
		}
		if torn {
			break
		}
		return pos, fmt.Errorf("seglog: %s: frame %d: %s", name, i, damage)
	}
	return pos, nil
}

// scanSegmentFile streams every transaction of a complete (sealed) segment
// file, verifying the header and every frame CRC. Any violation is an
// error: sealed segments are immutable, so damage here is corruption of
// acknowledged data and must never be skipped silently.
func scanSegmentFile(path string, fn func(txdb.Transaction) error) (txns int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return scanSegmentBytes(raw, path, fn)
}

func scanSegmentBytes(raw []byte, name string, fn func(txdb.Transaction) error) (txns int, err error) {
	if len(raw) < segHeaderSize || string(raw[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("seglog: %s: bad segment header", name)
	}
	if ver, n := binary.Uvarint(raw[len(segMagic):]); n <= 0 || ver != segVersion {
		return 0, fmt.Errorf("seglog: %s: unsupported segment version", name)
	}
	var dec txdb.Decoder
	_, err = walkFrames(raw, segHeaderSize, name, false, func(payload []byte) error {
		n, err := dec.DecodeAll(payload, fn)
		txns += n
		return err
	})
	return txns, err
}

// segDB is a read-only txdb.DB view of one sealed segment. Every Scan
// re-reads the file (sealed segments are immutable, so the content cannot
// change under the reader).
type segDB struct {
	path string
	txns int
}

func (s *segDB) Count() int { return s.txns }

func (s *segDB) Scan(fn func(txdb.Transaction) error) error {
	n, err := scanSegmentFile(s.path, fn)
	if err != nil {
		return err
	}
	if n != s.txns {
		return fmt.Errorf("seglog: %s: scanned %d transactions, manifest says %d", s.path, n, s.txns)
	}
	return nil
}

// recovered is the result of recovering an active segment file.
type recovered struct {
	txs     []txdb.Transaction // decoded transactions (cloned)
	size    int64              // valid byte length after truncation
	crc     uint32             // running CRC over the valid bytes
	dropped int64              // torn-tail bytes discarded
	minTID  int64
	maxTID  int64
}

// recoverActiveBytes classifies an active segment's bytes into a valid
// prefix and (possibly) a torn tail, as walkFrames decides: only a tail
// that cannot contain a complete acknowledged frame is dropped.
func recoverActiveBytes(raw []byte, name string) (*recovered, error) {
	rec := &recovered{}
	hdr := segmentHeader()
	switch {
	case len(raw) == 0:
		// Fresh or just-created file killed before the header landed.
		return rec, nil
	case len(raw) < len(hdr):
		// Torn header write: nothing could have been acknowledged.
		rec.dropped = int64(len(raw))
		return rec, nil
	case string(raw[:len(hdr)]) != string(hdr):
		return nil, fmt.Errorf("seglog: %s: bad segment header", name)
	}
	var dec txdb.Decoder
	end, err := walkFrames(raw, len(hdr), name, true, func(payload []byte) error {
		// The frame is intact; decode failures past the CRC mean the writer
		// never produced these bytes — corruption, not tearing.
		_, err := dec.DecodeAll(payload, func(tx txdb.Transaction) error {
			rec.txs = append(rec.txs, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.size = int64(end)
	rec.crc = crc32.Checksum(raw[:end], crcTable)
	rec.dropped = int64(len(raw) - end)
	if len(rec.txs) > 0 {
		rec.minTID = rec.txs[0].TID
		rec.maxTID = rec.txs[len(rec.txs)-1].TID
	}
	return rec, nil
}

// verifySegment fully reads a sealed segment and checks it against its
// manifest entry (size, CRC, transaction count, TID range).
func verifySegment(dir string, e SegmentEntry) error {
	path := segmentPath(dir, e.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if int64(len(raw)) != e.Bytes {
		return fmt.Errorf("seglog: %s: %d bytes on disk, manifest says %d", path, len(raw), e.Bytes)
	}
	if sum := crc32.Checksum(raw, crcTable); sum != e.CRC {
		return fmt.Errorf("seglog: %s: file CRC %08x, manifest says %08x", path, sum, e.CRC)
	}
	n, err := scanSegmentBytes(raw, path, func(txdb.Transaction) error { return nil })
	if err != nil {
		return err
	}
	if n != e.Txns {
		return fmt.Errorf("seglog: %s: %d transactions, manifest says %d", path, n, e.Txns)
	}
	return nil
}

// statSegment is the cheap open-time check: existence and size.
func statSegment(dir string, e SegmentEntry) error {
	path := segmentPath(dir, e.ID)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() != e.Bytes {
		return fmt.Errorf("seglog: %s: %d bytes on disk, manifest says %d", path, fi.Size(), e.Bytes)
	}
	return nil
}

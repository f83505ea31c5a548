package txdb

import (
	"encoding/binary"
	"fmt"

	"negmine/internal/item"
)

// Encoder is the record-level delta encoder of the binary format, detached
// from any header or file container. It carries the inter-record state (the
// previous TID) so the same transaction stream can be encoded across
// arbitrary buffer boundaries — package seglog frames its WAL payloads with
// it, and WriteFile encodes through it. The zero value encodes a fresh stream.
type Encoder struct {
	lastTID int64
	started bool
}

// AppendRecord appends the encoded form of tx to dst and returns the
// extended slice. Transactions must arrive in non-decreasing TID order; on
// error dst is returned unchanged and the encoder state is not advanced.
func (e *Encoder) AppendRecord(dst []byte, tx Transaction) ([]byte, error) {
	if e.started && tx.TID < e.lastTID {
		return dst, fmt.Errorf("txdb: TID %d out of order (previous %d)", tx.TID, e.lastTID)
	}
	if tx.TID < 0 {
		return dst, fmt.Errorf("txdb: negative TID %d", tx.TID)
	}
	dst = binary.AppendUvarint(dst, uint64(tx.TID-e.lastTID))
	e.lastTID = tx.TID
	e.started = true
	dst = binary.AppendUvarint(dst, uint64(len(tx.Items)))
	prev := int64(-1)
	for _, it := range tx.Items {
		dst = binary.AppendUvarint(dst, uint64(int64(it)-prev))
		prev = int64(it)
	}
	return dst, nil
}

// ResumeAt primes the encoder as if a record with the given TID had just
// been encoded, so the next record continues an existing stream.
func (e *Encoder) ResumeAt(lastTID int64) { e.lastTID, e.started = lastTID, true }

// LastTID returns the TID of the most recently encoded record (0 for a
// fresh encoder).
func (e *Encoder) LastTID() int64 { return e.lastTID }

// Decoder is the inverse of Encoder: it decodes consecutive records from
// byte slices, carrying TID state across calls so a stream split into
// frames decodes exactly as it was encoded. The zero value decodes a fresh
// stream.
type Decoder struct {
	lastTID int64
	items   item.Itemset
}

// DecodeAll decodes every record in data, invoking fn per transaction. The
// Items slice passed to fn is reused between calls; fn must Clone it to
// retain it. It returns the number of complete records decoded; on corrupt
// or truncated input it additionally returns an error, and the decoder
// state reflects only the complete records.
func (d *Decoder) DecodeAll(data []byte, fn func(Transaction) error) (int, error) {
	decoded := 0
	for len(data) > 0 {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return decoded, fmt.Errorf("txdb: record %d: truncated tid delta", decoded)
		}
		rest := data[n:]
		tid := d.lastTID + int64(delta)
		cnt, n := binary.Uvarint(rest)
		if n <= 0 {
			return decoded, fmt.Errorf("txdb: record %d: truncated item count", decoded)
		}
		rest = rest[n:]
		if cnt > 1<<24 {
			return decoded, fmt.Errorf("txdb: record %d: absurd item count %d", decoded, cnt)
		}
		if cap(d.items) < int(cnt) {
			d.items = make(item.Itemset, cnt)
		}
		d.items = d.items[:cnt]
		prev := int64(-1)
		for j := 0; j < int(cnt); j++ {
			delta, n := binary.Uvarint(rest)
			if n <= 0 {
				return decoded, fmt.Errorf("txdb: record %d: item %d: truncated", decoded, j)
			}
			rest = rest[n:]
			// Items are strictly increasing, so every delta from the previous
			// item (initially -1) must be ≥ 1; zero means corruption.
			if delta == 0 {
				return decoded, fmt.Errorf("txdb: record %d: item %d: zero delta (corrupt data)", decoded, j)
			}
			prev += int64(delta)
			if prev > int64(^uint32(0)>>1) {
				return decoded, fmt.Errorf("txdb: record %d: item id overflow", decoded)
			}
			d.items[j] = item.Item(prev)
		}
		// The record is complete; commit state before handing it out.
		d.lastTID = tid
		data = rest
		decoded++
		if err := fn(Transaction{TID: tid, Items: d.items}); err != nil {
			return decoded, err
		}
	}
	return decoded, nil
}

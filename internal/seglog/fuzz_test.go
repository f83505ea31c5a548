package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"negmine/internal/txdb"
)

// fuzzSeedSegment builds a valid two-frame active segment for the corpus.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	var enc txdb.Encoder
	raw := segmentHeader()
	p1, err := enc.AppendRecord(nil, txdb.Transaction{TID: 1, Items: basket(1, 2, 3)})
	if err != nil {
		f.Fatal(err)
	}
	p1, err = enc.AppendRecord(p1, txdb.Transaction{TID: 2, Items: basket(5)})
	if err != nil {
		f.Fatal(err)
	}
	raw = append(raw, frame(p1)...)
	p2, err := enc.AppendRecord(nil, txdb.Transaction{TID: 9, Items: basket(0, 4)})
	if err != nil {
		f.Fatal(err)
	}
	return append(raw, frame(p2)...)
}

// FuzzSeglogRecover feeds arbitrary bytes to the active-segment recovery
// path, the dedup journal parse and the manifest loader. The recovery must
// never panic; when it accepts a prefix, that prefix must re-scan as a fully
// valid sealed segment yielding the same transactions — a committed
// transaction inside the accepted prefix can never be silently dropped or
// rewritten. The frames behind the segment header, read as a journal, must
// keep the same prefix wherever both readers accept.
func FuzzSeglogRecover(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed, []byte(`{"version":1,"nextId":2,"active":1}`))
	f.Add(seed[:len(seed)-3], []byte(`{"version":1,"nextId":3,"active":2,"sealed":[{"id":1,"txns":2,"bytes":40,"crc":1,"minTid":1,"maxTid":2}]}`))
	f.Add([]byte("NMSL"), []byte("}{"))
	f.Add([]byte{}, []byte{})
	// A payload both readers take: JSON null, and one transaction of 117
	// items in the txdb encoding.
	both := frame(append([]byte("null"), bytes.Repeat([]byte(" "), 115)...))
	f.Add(append(append(segmentHeader(), both...), both[:5]...), []byte{})

	f.Fuzz(func(t *testing.T, segRaw, manRaw []byte) {
		rec, err := recoverActiveBytes(segRaw, "fuzz")
		if err == nil {
			if rec.size < 0 || rec.size > int64(len(segRaw)) {
				t.Fatalf("recovered size %d outside [0, %d]", rec.size, len(segRaw))
			}
			prev := int64(0)
			for _, tx := range rec.txs {
				if tx.TID <= prev {
					t.Fatalf("recovered TIDs not strictly increasing: %d after %d", tx.TID, prev)
				}
				if err := tx.Items.Validate(); err != nil {
					t.Fatalf("recovered invalid itemset: %v", err)
				}
				prev = tx.TID
			}
			// Differential check: the accepted prefix must be a completely
			// valid segment holding exactly the recovered transactions.
			if rec.size > 0 {
				var got []txdb.Transaction
				n, err := scanSegmentBytes(segRaw[:rec.size], "fuzz", func(tx txdb.Transaction) error {
					got = append(got, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
					return nil
				})
				if err != nil {
					t.Fatalf("accepted prefix does not rescan: %v", err)
				}
				if n != len(rec.txs) {
					t.Fatalf("rescan found %d txs, recovery reported %d", n, len(rec.txs))
				}
				for i := range got {
					if got[i].TID != rec.txs[i].TID || !got[i].Items.Equal(rec.txs[i].Items) {
						t.Fatalf("tx %d differs between recovery and rescan", i)
					}
				}
			}
		}

		if hdr := segmentHeader(); err == nil && bytes.HasPrefix(segRaw, hdr) {
			body := segRaw[len(hdr):]
			if recs, err := parseDedupJournal(body, "fuzz"); err == nil {
				kept := 0
				for range recs {
					kept += frameHeaderSize + int(binary.LittleEndian.Uint32(body[kept:]))
				}
				if int64(len(hdr)+kept) != rec.size {
					t.Fatalf("journal keeps %d frame bytes, active segment %d", kept, rec.size-int64(len(hdr)))
				}
			}
		}

		// The sealed-segment scanner must also never panic, and a bounded
		// callback count guards against absurd-allocation loops.
		calls := 0
		_, _ = scanSegmentBytes(segRaw, "fuzz", func(tx txdb.Transaction) error {
			calls++
			if calls > 1<<20 {
				t.Fatal("unbounded segment scan")
			}
			return nil
		})

		// Manifest bytes: parse + validate must reject garbage, never panic.
		var m manifest
		if err := json.Unmarshal(manRaw, &m); err == nil {
			_ = m.validate()
		}
	})
}

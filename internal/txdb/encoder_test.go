package txdb

import (
	"testing"

	"negmine/internal/item"
)

func writeTestFile(t *testing.T, path string, txs []Transaction) {
	t.Helper()
	db, err := NewMemDB(txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, path string) []Transaction {
	t.Helper()
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m.Transactions()
}

func sameTxs(a, b []Transaction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TID != b[i].TID || !a[i].Items.Equal(b[i].Items) {
			return false
		}
	}
	return true
}

func TestEncoderDecoderRoundTripAcrossFrames(t *testing.T) {
	txs := []Transaction{
		{TID: 3, Items: item.New(1, 5, 9)},
		{TID: 3, Items: item.New(2)},
		{TID: 10, Items: item.New(0, 1, 2, 3)},
		{TID: 11, Items: nil},
		{TID: 200000, Items: item.New(7, 70, 700000)},
	}
	// Encode each record into its own "frame" buffer; the stream state must
	// carry across the boundaries.
	var enc Encoder
	var frames [][]byte
	for _, tx := range txs {
		rec, err := enc.AppendRecord(nil, tx)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, rec)
	}
	var dec Decoder
	var got []Transaction
	for _, f := range frames {
		if _, err := dec.DecodeAll(f, func(tx Transaction) error {
			got = append(got, Transaction{TID: tx.TID, Items: tx.Items.Clone()})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !sameTxs(got, txs) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, txs)
	}
	if dec.lastTID != enc.LastTID() || enc.LastTID() != 200000 {
		t.Fatalf("TID state: enc %d dec %d, want 200000", enc.LastTID(), dec.lastTID)
	}
}

func TestEncoderRejectsBadTIDs(t *testing.T) {
	var enc Encoder
	if _, err := enc.AppendRecord(nil, Transaction{TID: 5, Items: item.New(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.AppendRecord(nil, Transaction{TID: 4, Items: item.New(1)}); err == nil {
		t.Fatal("out-of-order TID accepted")
	}
	if _, err := enc.AppendRecord(nil, Transaction{TID: -1, Items: item.New(1)}); err == nil {
		t.Fatal("negative TID accepted")
	}
	// State must be unchanged after the failures.
	if enc.LastTID() != 5 {
		t.Fatalf("LastTID = %d after rejected records, want 5", enc.LastTID())
	}
}

func TestDecoderRejectsCorruptInput(t *testing.T) {
	var enc Encoder
	rec, err := enc.AppendRecord(nil, Transaction{TID: 1, Items: item.New(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated":  rec[:len(rec)-1],
		"zero delta": {1, 2, 3, 0, 5},
	} {
		var dec Decoder
		n, err := dec.DecodeAll(data, func(Transaction) error { return nil })
		if err == nil {
			t.Errorf("%s: decoded %d records without error", name, n)
		}
	}
}

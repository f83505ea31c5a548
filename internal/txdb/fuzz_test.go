package txdb

import (
	"bytes"
	"os"
	"testing"

	"negmine/internal/item"
)

// FuzzScanBinary feeds arbitrary bytes to the binary-format reader: it must
// either reject the input with an error or scan cleanly, but never panic or
// allocate absurdly.
func FuzzScanBinary(f *testing.F) {
	// Seed with a valid file.
	db, err := NewMemDB([]Transaction{{TID: 1, Items: item.New(1, 2, 3)}, {TID: 5, Items: item.New(7)}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeAll(&buf, db); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NMTX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := dir + "/fuzz.nmtx"
		if err := writeRaw(path, data); err != nil {
			t.Skip()
		}
		db, err := OpenFile(path)
		if err != nil {
			return // rejected at header: fine
		}
		// Guard against absurd header counts driving a long loop: the scan
		// must fail fast on truncated bodies.
		n := 0
		_ = db.Scan(func(tx Transaction) error {
			if err := tx.Items.Validate(); err != nil {
				t.Errorf("scanned invalid itemset: %v", err)
			}
			n++
			if n > 1<<20 {
				t.Fatal("unbounded scan")
			}
			return nil
		})
	})
}

func writeRaw(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

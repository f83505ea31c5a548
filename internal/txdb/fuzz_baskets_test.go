// External test package so the fuzz targets can seed their corpora from
// internal/datagen (importing it from package txdb would be a cycle).
package txdb_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// datagenBasketSeed serializes a synthetic database as baskets of item
// names, or with ints of raw integer ids, so the fuzzer starts from
// realistic input.
func datagenBasketSeed(f *testing.F, ints bool) string {
	f.Helper()
	tax, db, err := datagen.Generate(datagen.Short())
	if err != nil {
		f.Fatalf("datagen: %v", err)
	}
	var buf bytes.Buffer
	if ints {
		err = db.Scan(func(tx txdb.Transaction) error {
			for i, x := range tx.Items {
				if i > 0 {
					buf.WriteByte(' ')
				}
				buf.WriteString(strconv.Itoa(int(x)))
			}
			buf.WriteByte('\n')
			return nil
		})
	} else {
		err = txdb.WriteBaskets(&buf, db, tax.Dictionary())
	}
	if err != nil {
		f.Fatalf("serializing seed: %v", err)
	}
	return buf.String()
}

// FuzzReadBaskets feeds arbitrary text to the named-basket reader. The
// reader must never panic; on success every transaction must have a
// sequential TID, a sorted duplicate-free itemset, and only ids the
// dictionary actually interned.
func FuzzReadBaskets(f *testing.F) {
	f.Add(datagenBasketSeed(f, false))
	f.Add("milk bread\nbeer # trailing comment\n")
	f.Add("# only a comment\n\n\n")
	f.Add("a a a\n")
	f.Add(strings.Repeat("x", 70000) + " y\n") // token longer than the scanner's initial buffer

	f.Fuzz(func(t *testing.T, s string) {
		dict := item.NewDictionary()
		db, err := txdb.ReadBaskets(strings.NewReader(s), dict)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		wantTID := int64(0)
		err = db.Scan(func(tx txdb.Transaction) error {
			wantTID++
			if tx.TID != wantTID {
				t.Fatalf("TID %d out of sequence (want %d)", tx.TID, wantTID)
			}
			if tx.Items.Len() == 0 {
				t.Fatalf("transaction %d has no items", tx.TID)
			}
			for i, it := range tx.Items {
				if int(it) < 0 || int(it) >= dict.Len() {
					t.Fatalf("transaction %d: item %d outside dictionary (len %d)", tx.TID, it, dict.Len())
				}
				if i > 0 && tx.Items[i-1] >= it {
					t.Fatalf("transaction %d: items not sorted-unique: %v", tx.TID, tx.Items)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan of parsed db: %v", err)
		}
		if int(wantTID) != db.Count() {
			t.Fatalf("Count() = %d but scanned %d", db.Count(), wantTID)
		}
	})
}

// FuzzReadBasketsInts is the same contract for the integer-id format, which
// additionally must reject malformed and negative ids with an error naming
// the line.
func FuzzReadBasketsInts(f *testing.F) {
	f.Add(datagenBasketSeed(f, true))
	f.Add("1 2 3\n4 5\n")
	f.Add("-1\n")
	f.Add("99999999999999999999\n") // overflows int32
	f.Add("1 two 3\n")

	f.Fuzz(func(t *testing.T, s string) {
		db, err := txdb.ReadBasketsInts(strings.NewReader(s))
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("reject without a line number: %v", err)
			}
			return
		}
		wantTID := int64(0)
		err = db.Scan(func(tx txdb.Transaction) error {
			wantTID++
			if tx.TID != wantTID {
				t.Fatalf("TID %d out of sequence (want %d)", tx.TID, wantTID)
			}
			for i, it := range tx.Items {
				if it < 0 {
					t.Fatalf("transaction %d: negative item %d", tx.TID, it)
				}
				if i > 0 && tx.Items[i-1] >= it {
					t.Fatalf("transaction %d: items not sorted-unique: %v", tx.TID, tx.Items)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan of parsed db: %v", err)
		}
	})
}

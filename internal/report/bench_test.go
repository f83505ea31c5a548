package report

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/taxonomy"
)

// serveRead is serve-read's rule set, mined once for every benchmark: the
// first 5 000 transactions of the Short model (seed 1) at 1 % / 0.5,
// Improved over Cumulate on every core, as the benchmark harness mines it.
var serveRead struct {
	once sync.Once
	res  *negative.Result
	tax  *taxonomy.Taxonomy
	err  error
}

const serveReadMinSup, serveReadMinRI = 0.01, 0.5

func serveReadResult(b *testing.B) (*negative.Result, *taxonomy.Taxonomy) {
	b.Helper()
	serveRead.once.Do(func() {
		p := datagen.Short()
		p.NumTransactions, p.Seed = 5000, 1
		tax, db, err := datagen.Generate(p)
		if err != nil {
			serveRead.err = err
			return
		}
		opt := negative.Options{MinSupport: serveReadMinSup, MinRI: serveReadMinRI, Algorithm: negative.Improved}
		opt.Count.Parallelism = runtime.NumCPU()
		opt.Gen.Count.Parallelism = runtime.NumCPU()
		serveRead.res, serveRead.err = negative.Mine(db, tax, opt)
		serveRead.tax = tax
	})
	if serveRead.err != nil {
		b.Fatal(serveRead.err)
	}
	return serveRead.res, serveRead.tax
}

// BenchmarkWriteNegativeJSON renders serve-read's report, after checking
// that its bytes are encoding/json's.
func BenchmarkWriteNegativeJSON(b *testing.B) {
	res, tax := serveReadResult(b)
	want, err := encodeWhole(res, serveReadMinSup, serveReadMinRI, tax.Name)
	if err != nil {
		b.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteNegativeJSON(&got, res, serveReadMinSup, serveReadMinRI, tax.Name); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		b.Fatalf("the report (%d bytes) differs from encoding/json's (%d bytes)", got.Len(), len(want))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNegativeJSON(io.Discard, res, serveReadMinSup, serveReadMinRI, tax.Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rules)), "rules")
	b.ReportMetric(float64(len(want)), "bytes")
}

// BenchmarkReadNegativeJSON reads serve-read's report from a file, as a
// daemon boots from it, after checking that the read equals one Decode of
// the whole document: with the mined names, and with each name carrying an
// escape (an "&", as in "AT&T").
func BenchmarkReadNegativeJSON(b *testing.B) {
	res, tax := serveReadResult(b)
	for _, names := range []struct {
		label string
		name  func(item.Item) string
	}{
		{"plain", tax.Name},
		{"escaped", func(i item.Item) string { return tax.Name(i) + "&" }},
	} {
		b.Run(names.label, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "rules.json")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if err := WriteNegativeJSON(f, res, serveReadMinSup, serveReadMinRI, names.name); err != nil {
				b.Fatal(err)
			}
			read := func(readFn func(io.Reader) (*NegativeReport, error)) *NegativeReport {
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				rep, err := readFn(f)
				if err != nil {
					b.Fatal(err)
				}
				return rep
			}
			if got, want := read(ReadNegativeJSON), read(readWhole); !reflect.DeepEqual(got, want) {
				b.Fatalf("read %d rules and %d itemsets, unequal to the whole decode's %d and %d",
					len(got.Rules), len(got.Itemsets), len(want.Rules), len(want.Itemsets))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(ReadNegativeJSON)
			}
		})
	}
}

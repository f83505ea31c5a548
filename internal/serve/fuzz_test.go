package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"negmine/internal/snapfmt"
)

// FuzzOpenSnapshot turns every image snapfmt.Decode accepts into a serving
// snapshot and queries it: deriving the indexes from a validated arena, and
// walking them, must never panic. The seeds are small on purpose (the
// fuzzer minimizes every new input): snapfmt's hand-built image as version 2
// wrote it, and the three-rule test snapshot as version 3.
func FuzzOpenSnapshot(f *testing.F) {
	v2, err := os.ReadFile(filepath.Join("..", "snapfmt", "testdata", "v2.nsnap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	snap := BuildSnapshot(testStore(), testTaxonomy(f), Meta{})
	var v3 bytes.Buffer
	if err := EncodeSnapshot(&v3, snap, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := snapfmt.Decode(data)
		if err != nil {
			return
		}
		s, err := SnapshotFromImage(img)
		if err != nil {
			return
		}
		var dst []RuleID
		for _, name := range s.names {
			dst = s.QueryItem(dst[:0], name, 0, 0)
		}
		for i := 0; i+1 < len(s.names) && i < 64; i += 2 {
			dst = s.Score(dst[:0], s.names[i:i+2], 0, 0)
		}
		_, _ = s.Info(), s.Layout()
	})
}

package snapfmt

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode drives arbitrary bytes through the validating decoder.
// The invariant: Decode never panics, and when it accepts an input, every
// accessor the serving layer relies on is in-bounds without further checks.
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, testImage()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("NSNP"))
	// A couple of single-byte mutants to seed the corpus near validity.
	for _, i := range []int{5, 33, 70, len(valid) - 9} {
		m := bytes.Clone(valid)
		m[i] ^= 0xff
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted: exercise every access pattern queries perform.
		n, m := img.NumRules(), img.NumItems()
		for i := 0; i < n; i++ {
			ante, cons := img.RuleSides(i)
			for _, id := range ante {
				_ = img.Name(int(id))
			}
			for _, id := range cons {
				_ = img.Name(int(id))
			}
			_ = img.RI[i] + img.Expected[i] + img.Actual[i]
		}
		for i := 0; i < m; i++ {
			_ = img.Name(i)
			for _, a := range img.AncIDs[img.AncOff[i]:img.AncOff[i+1]] {
				_ = img.Name(int(a))
			}
		}
		_, _ = img.RIRange()
		if _, _, err := DecodeHeader(data); err != nil {
			t.Fatalf("Decode accepted but DecodeHeader rejects: %v", err)
		}
	})
}

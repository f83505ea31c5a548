package snapfmt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"negmine/internal/fault"
)

// ErrFormat is the sentinel every structural decode failure wraps: bad
// magic, unknown version, truncation, checksum mismatch, inconsistent
// counts. Callers distinguish "this is not a usable snapshot" (fall back to
// mining) from I/O errors with errors.Is.
var ErrFormat = errors.New("invalid snapshot file")

func formatErrf(format string, args ...any) error {
	return fmt.Errorf("snapfmt: "+format+": %w", append(args, ErrFormat)...)
}

// DecodeHeader parses and verifies only the fixed header and section table
// — the lenient entry point inspection tooling uses so a file with a
// corrupted payload can still be described.
func DecodeHeader(data []byte) (Header, []SectionInfo, error) {
	if len(data) < headerSize {
		return Header{}, nil, formatErrf("%d bytes, shorter than the %d-byte header", len(data), headerSize)
	}
	if got := binary.LittleEndian.Uint32(data[0:]); got != Magic {
		return Header{}, nil, formatErrf("bad magic %#08x (want %#08x)", got, Magic)
	}
	if crc := crc32.Checksum(data[:60], castagnoli); crc != binary.LittleEndian.Uint32(data[60:]) {
		return Header{}, nil, formatErrf("header checksum mismatch")
	}
	h := Header{
		Version:    binary.LittleEndian.Uint32(data[4:]),
		Generation: binary.LittleEndian.Uint64(data[8:]),
		CreatedNs:  int64(binary.LittleEndian.Uint64(data[16:])),
		FileSize:   binary.LittleEndian.Uint64(data[24:]),
		Sections:   int(binary.LittleEndian.Uint32(data[32:])),
	}
	if h.Version < oldestVersion || h.Version > Version {
		return Header{}, nil, formatErrf("unsupported version %d (this reader speaks %d to %d)", h.Version, oldestVersion, Version)
	}
	if h.FileSize != uint64(len(data)) {
		return Header{}, nil, formatErrf("header says %d bytes, file has %d (truncated or grown)", h.FileSize, len(data))
	}
	tableEnd := uint64(headerSize) + uint64(h.Sections)*sectionSize
	if h.Sections < 0 || tableEnd > uint64(len(data)) {
		return Header{}, nil, formatErrf("section table (%d entries) exceeds the file", h.Sections)
	}
	tb := data[headerSize:tableEnd]
	if crc := crc32.Checksum(tb, castagnoli); crc != binary.LittleEndian.Uint32(data[56:]) {
		return Header{}, nil, formatErrf("section-table checksum mismatch")
	}
	table := make([]SectionInfo, h.Sections)
	for i := range table {
		b := tb[i*sectionSize:]
		table[i] = SectionInfo{
			Kind:   SectionKind(binary.LittleEndian.Uint32(b[0:])),
			Offset: binary.LittleEndian.Uint64(b[8:]),
			Length: binary.LittleEndian.Uint64(b[16:]),
			CRC:    binary.LittleEndian.Uint32(b[24:]),
		}
	}
	return h, table, nil
}

// sectionBytes bounds-checks one table entry against the file and returns
// its payload bytes.
func sectionBytes(data []byte, e SectionInfo) ([]byte, error) {
	if e.Offset%8 != 0 {
		return nil, formatErrf("section %s at unaligned offset %d", e.Kind.Name(), e.Offset)
	}
	end := e.Offset + e.Length
	if end < e.Offset || end > uint64(len(data)) {
		return nil, formatErrf("section %s [%d, %d) exceeds the %d-byte file", e.Kind.Name(), e.Offset, end, len(data))
	}
	return data[e.Offset:end:end], nil
}

// SectionStatus is one section's verification result from Check.
type SectionStatus struct {
	SectionInfo
	OK  bool
	Err string // empty when OK
}

// CheckReport is the per-section verification result (nmtx snap verify).
type CheckReport struct {
	Header     Header
	Sections   []SectionStatus
	Structural string // non-empty when checksums pass but validation fails
	OK         bool
}

// Check verifies every section checksum plus the full structural
// validation, reporting per-section status instead of failing on the first
// problem. A nil error means the file could be parsed far enough to check;
// report.OK says whether it is a valid snapshot.
func Check(data []byte) (*CheckReport, error) {
	h, table, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	rep := &CheckReport{Header: h, OK: true}
	for _, e := range table {
		st := SectionStatus{SectionInfo: e, OK: true}
		b, err := sectionBytes(data, e)
		switch {
		case err != nil:
			st.OK, st.Err = false, err.Error()
		case crc32.Checksum(b, castagnoli) != e.CRC:
			st.OK, st.Err = false, "checksum mismatch"
		}
		if !st.OK {
			rep.OK = false
		}
		rep.Sections = append(rep.Sections, st)
	}
	if rep.OK {
		// Checksums pass; run the structural validation too, so a
		// well-checksummed but internally inconsistent file is flagged.
		if _, err := Decode(data); err != nil {
			rep.OK = false
			rep.Structural = err.Error()
		}
	}
	return rep, nil
}

// Decode parses, checksums and validates data and returns the Image. On
// little-endian hosts the image's slices alias data — the caller must keep
// data alive (and unmodified) for the image's lifetime; this is what makes
// serving straight off an mmap possible. Every error wraps ErrFormat.
func Decode(data []byte) (*Image, error) {
	if err := fault.Hit(PointDecode); err != nil {
		return nil, err
	}
	h, table, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	img := &Image{Header: h}

	// Collect required sections, verifying each checksum. Unknown kinds are
	// ignored (additive evolution); duplicate known kinds are an error.
	secs := map[SectionKind][]byte{}
	for _, e := range table {
		if _, known := sectionNames[e.Kind]; !known {
			continue
		}
		if _, dup := secs[e.Kind]; dup {
			return nil, formatErrf("duplicate section %s", e.Kind.Name())
		}
		b, err := sectionBytes(data, e)
		if err != nil {
			return nil, err
		}
		if crc32.Checksum(b, castagnoli) != e.CRC {
			return nil, formatErrf("section %s checksum mismatch", e.Kind.Name())
		}
		secs[e.Kind] = b
	}
	get := func(kind SectionKind, elem int) ([]byte, error) {
		b, ok := secs[kind]
		if !ok {
			return nil, formatErrf("missing section %s", kind.Name())
		}
		if elem > 1 && len(b)%elem != 0 {
			return nil, formatErrf("section %s: %d bytes is not a multiple of %d", kind.Name(), len(b), elem)
		}
		return b, nil
	}

	// Meta.
	mb, err := get(SecMeta, 1)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(mb, &img.Meta); err != nil {
		return nil, formatErrf("meta section: %v", err)
	}

	// Typed sections.
	load := []struct {
		kind SectionKind
		elem int
		set  func([]byte)
	}{
		{SecRI, 8, func(b []byte) { img.RI = bytesF64(b) }},
		{SecExpected, 8, func(b []byte) { img.Expected = bytesF64(b) }},
		{SecActual, 8, func(b []byte) { img.Actual = bytesF64(b) }},
		{SecOff, 4, func(b []byte) { img.Off = bytesU32(b) }},
		{SecSideIDs, 4, func(b []byte) { img.SideIDs = bytesI32(b) }},
		{SecNameOffs, 4, func(b []byte) { img.NameOffs = bytesU32(b) }},
		{SecNameBlob, 1, func(b []byte) { img.NameBlob = b }},
		{SecAncOff, 4, func(b []byte) { img.AncOff = bytesU32(b) }},
		{SecAncIDs, 4, func(b []byte) { img.AncIDs = bytesI32(b) }},
		{SecFragOff, 8, func(b []byte) { img.FragOff = bytesU64(b) }},
		{SecFragBlob, 1, func(b []byte) { img.FragBlob = b }},
	}
	for _, l := range load {
		b, err := get(l.kind, l.elem)
		if err != nil {
			return nil, err
		}
		l.set(b)
	}

	if err := img.validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// validate checks every structural invariant the serving layer depends on,
// so a decoded image can be indexed and queried without further bounds
// checks. Checksums catch random corruption; this catches truncation that
// happens to checksum, buggy writers, and adversarial input (the fuzz
// target drives arbitrary bytes through Decode).
func (img *Image) validate() error {
	n := len(img.RI)
	if len(img.Expected) != n || len(img.Actual) != n {
		return formatErrf("rule slices disagree: ri=%d expected=%d actual=%d",
			n, len(img.Expected), len(img.Actual))
	}
	if len(img.Off) != 2*n+1 {
		return formatErrf("off has %d entries, want %d for %d rules", len(img.Off), 2*n+1, n)
	}
	if len(img.NameOffs) == 0 {
		return formatErrf("empty name-offs section")
	}
	m := len(img.NameOffs) - 1
	if img.Meta.Rules != n || img.Meta.Items != m {
		return formatErrf("meta counts (rules=%d items=%d) disagree with sections (rules=%d items=%d)",
			img.Meta.Rules, img.Meta.Items, n, m)
	}
	if !validRI(img.RI) {
		return formatErrf("rule interest is not NaN-free descending")
	}
	if err := monotonic("off", img.Off, len(img.SideIDs)); err != nil {
		return err
	}
	if img.Off[0] != 0 {
		return formatErrf("off does not start at 0")
	}
	if img.Off[2*n] != uint32(len(img.SideIDs)) {
		return formatErrf("off ends at %d, want %d (side-ids length)", img.Off[2*n], len(img.SideIDs))
	}
	for _, id := range img.SideIDs {
		if id < 0 || int(id) >= m {
			return formatErrf("side item id %d out of range [0, %d)", id, m)
		}
	}
	if err := monotonic("name-offs", img.NameOffs, len(img.NameBlob)); err != nil {
		return err
	}
	if img.NameOffs[0] != 0 || img.NameOffs[m] != uint32(len(img.NameBlob)) {
		return formatErrf("name-offs does not span the name blob")
	}
	if len(img.AncOff) != m+1 {
		return formatErrf("anc-off has %d entries, want %d", len(img.AncOff), m+1)
	}
	if err := monotonic("anc-off", img.AncOff, len(img.AncIDs)); err != nil {
		return err
	}
	if img.AncOff[0] != 0 || img.AncOff[m] != uint32(len(img.AncIDs)) {
		return formatErrf("anc-off does not span anc-ids")
	}
	for _, a := range img.AncIDs {
		if a < 0 || int(a) >= m {
			return formatErrf("ancestor id %d out of range [0, %d)", a, m)
		}
	}
	if len(img.FragOff) != n+1 {
		return formatErrf("frag-off has %d entries, want %d for %d rules", len(img.FragOff), n+1, n)
	}
	if err := monotonic("frag-off", img.FragOff, len(img.FragBlob)); err != nil {
		return err
	}
	if img.FragOff[0] != 0 || img.FragOff[n] != uint64(len(img.FragBlob)) {
		return formatErrf("frag-off does not span the fragment blob")
	}
	return nil
}

// monotonic checks a non-decreasing offset array whose values stay ≤ max.
func monotonic[T uint32 | uint64](name string, offs []T, max int) error {
	prev := T(0)
	for _, o := range offs {
		if o < prev || uint64(o) > uint64(max) {
			return formatErrf("%s offsets not monotonic within [0, %d]", name, max)
		}
		prev = o
	}
	return nil
}

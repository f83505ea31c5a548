// Package snapfmt defines the .nsnap binary snapshot format: a versioned,
// checksummed, little-endian, section-based encoding of the serving layer's
// flat rule arena (struct-of-arrays rule slices, interned item dictionary,
// taxonomy-ancestor chains, pre-rendered rule JSON) laid out so a file can
// be mmap'd and served zero-copy. Decode validates the header, every section
// checksum and every structural invariant, then returns an Image whose
// slices alias the mapped bytes, with no copies of the payload. The file
// carries no posting lists: opening one (internal/serve) copies out the item
// names and derives the two per-item indexes from the arena, a pass over the
// rule sides, and renders nothing. A daemon restart therefore costs one mmap,
// one checksum pass and that derivation instead of a full re-mine, and any
// number of replicas mapping the same file share its page cache.
//
// # File layout
//
//	offset 0    header, 64 bytes (magic, version, generation, created,
//	            file size, section count, table CRC, header CRC)
//	offset 64   section table: one 32-byte entry per section
//	            (kind, offset, length, CRC32-C of the payload)
//	then        section payloads, each 8-byte aligned, zero-padded between
//
// All integers are little-endian. Section payloads are raw element arrays
// ([]float64, []uint32, []int32, []uint64) exactly as
// the serving arena holds them in memory, which is what makes aliasing
// possible on little-endian hosts; big-endian hosts transparently fall back
// to a copying decode.
//
// # Versioning and compatibility
//
// The header carries a single format version. A reader rejects files whose
// version it does not know. Unknown section kinds are ignored (additive
// evolution: a newer writer may append new sections that an older reader
// skips), while the required sections must each appear exactly once. Any
// layout change that would misparse old readers bumps the version.
package snapfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
)

// Failpoints threaded through the codec (see internal/fault).
const (
	// PointEncode fires before every section payload written by Encode; an
	// error action models a writer killed mid-stream (with atomicio the
	// destination file must stay untouched).
	PointEncode = "snapfmt.encode"
	// PointDecode fires at the top of Decode; an error action models a
	// snapshot file that fails validation, forcing the load fallback path.
	PointDecode = "snapfmt.decode"
	// PointMmap fires in Open before the file is mapped; an error action
	// models a map failure (exhausted address space, filesystem error).
	PointMmap = "snapfmt.mmap"
)

// Magic identifies a .nsnap file: the bytes "NSNP" read as a little-endian
// uint32.
const Magic uint32 = 'N' | 'S'<<8 | 'N'<<16 | 'P'<<24

// Version is the format version Encode writes. Decode also reads version 2,
// which holds every version-3 section plus the posting lists of kinds 11–19,
// skipped like any unknown kind. Version 1, from before the rendered-rule
// sections, is rejected like any other unknown version and rebuilt from its
// source.
const Version uint32 = 3

// oldestVersion is the oldest format version Decode reads.
const oldestVersion uint32 = 2

// Header sizes, fixed by the format.
const (
	headerSize  = 64
	sectionSize = 32
)

// castagnoli is the CRC-32C table used for every checksum in the format
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionKind identifies one section's payload type.
type SectionKind uint32

// The sections of format version 3. Every kind is required (zero length is
// fine); unknown kinds are ignored. Kinds 11–19 are reserved: version 2 kept
// posting lists there, which a reader derives from the arena instead.
const (
	SecMeta     SectionKind = 1 + iota // JSON Meta document
	SecRI                              // []float64, rule interest per rule, descending
	SecExpected                        // []float64, expected support per rule
	SecActual                          // []float64, actual support per rule
	SecOff                             // []uint32, 2n+1 side offsets into SideIDs
	SecSideIDs                         // []int32, flattened rule sides (interned ids)
	SecNameOffs                        // []uint32, m+1 offsets into NameBlob
	SecNameBlob                        // raw bytes, concatenated item names
	SecAncOff                          // []uint32, m+1 offsets into AncIDs
	SecAncIDs                          // []int32, flattened ancestor chains
)

const (
	SecFragOff  SectionKind = 20 + iota // []uint64, n+1 offsets into FragBlob
	SecFragBlob                         // raw bytes, concatenated rendered rule fragments
)

// sectionNames names the known kinds; Decode skips every other one.
var sectionNames = map[SectionKind]string{
	SecMeta: "meta", SecRI: "ri", SecExpected: "expected", SecActual: "actual",
	SecOff: "off", SecSideIDs: "side-ids", SecNameOffs: "name-offs",
	SecNameBlob: "name-blob", SecAncOff: "anc-off", SecAncIDs: "anc-ids",
	SecFragOff: "frag-off", SecFragBlob: "frag-blob",
}

// Name returns the section kind's human-readable name ("kind-N" if unknown).
func (k SectionKind) Name() string {
	if n, ok := sectionNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", uint32(k))
}

// Header is the decoded fixed-size file header.
type Header struct {
	Version    uint32
	Generation uint64 // artifact-store generation (1 for standalone files)
	CreatedNs  int64  // unix nanoseconds the snapshot was built
	FileSize   uint64 // total file length the writer committed to
	Sections   int
}

// Created returns the snapshot build time.
func (h Header) Created() time.Time { return time.Unix(0, h.CreatedNs) }

// SectionInfo is one decoded section-table entry.
type SectionInfo struct {
	Kind   SectionKind
	Offset uint64
	Length uint64
	CRC    uint32
}

// Meta is the JSON document of the SecMeta section: human-oriented
// provenance plus the redundant counts Decode cross-checks against the
// section lengths.
type Meta struct {
	Tool       string  `json:"tool,omitempty"`   // writer ("negmine", "negmined", ...)
	Source     string  `json:"source,omitempty"` // where the rules came from
	MinSupport float64 `json:"minSupport,omitempty"`
	MinRI      float64 `json:"minRI,omitempty"`
	Rules      int     `json:"rules"`
	Items      int     `json:"items"`
}

// Image is the decoded (or to-be-encoded) snapshot payload. After Decode
// the slices alias the input buffer — callers must keep the buffer (or the
// mapping) alive for as long as the Image or anything derived from it is in
// use, and must not mutate either.
type Image struct {
	Header Header
	Meta   Meta

	// Rule arena, parallel slices indexed by rule id (serving rank).
	RI       []float64
	Expected []float64
	Actual   []float64
	Off      []uint32 // 2n+1: rule i's sides at SideIDs[Off[2i]:Off[2i+1]] / [Off[2i+1]:Off[2i+2]]
	SideIDs  []int32

	// Interned item dictionary: item i's name is
	// NameBlob[NameOffs[i]:NameOffs[i+1]].
	NameOffs []uint32
	NameBlob []byte

	// Flattened taxonomy-ancestor chains, nearest-first.
	AncOff []uint32
	AncIDs []int32

	// Rendered rules: rule i's JSON fragment, exactly as the serving layer
	// splices it into /rules and /score documents, is
	// FragBlob[FragOff[i]:FragOff[i+1]]. The format carries the bytes
	// opaquely; only the offsets are validated.
	FragOff  []uint64
	FragBlob []byte
}

// NumRules returns the rule count.
func (img *Image) NumRules() int { return len(img.RI) }

// NumItems returns the interned item count.
func (img *Image) NumItems() int { return len(img.NameOffs) - 1 }

// Name returns item i's name (copied out of the blob).
func (img *Image) Name(i int) string {
	return string(img.NameBlob[img.NameOffs[i]:img.NameOffs[i+1]])
}

// RuleSides returns rule i's antecedent and consequent item ids (shared
// subslices).
func (img *Image) RuleSides(i int) (ante, cons []int32) {
	a, b, c := img.Off[2*i], img.Off[2*i+1], img.Off[2*i+2]
	return img.SideIDs[a:b:b], img.SideIDs[b:c:c]
}

// RIRange returns the smallest and largest rule interest in the image
// (zeros when there are no rules). Rules are RI-descending, so this is the
// last and first entry.
func (img *Image) RIRange() (lo, hi float64) {
	if len(img.RI) == 0 {
		return 0, 0
	}
	return img.RI[len(img.RI)-1], img.RI[0]
}

// section pairs a kind with its payload bytes for encoding. The bytes are
// zero-copy views of the image slices on little-endian hosts.
type section struct {
	kind    SectionKind
	payload []byte
}

// sections lists the image's sections in file order. The meta JSON is the
// only allocation.
func (img *Image) sections() ([]section, error) {
	meta := img.Meta
	meta.Rules = img.NumRules()
	meta.Items = img.NumItems()
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("snapfmt: encoding meta: %w", err)
	}
	return []section{
		{SecMeta, mb},
		{SecRI, asBytes(img.RI)},
		{SecExpected, asBytes(img.Expected)},
		{SecActual, asBytes(img.Actual)},
		{SecOff, asBytes(img.Off)},
		{SecSideIDs, asBytes(img.SideIDs)},
		{SecNameOffs, asBytes(img.NameOffs)},
		{SecNameBlob, img.NameBlob},
		{SecAncOff, asBytes(img.AncOff)},
		{SecAncIDs, asBytes(img.AncIDs)},
		{SecFragOff, asBytes(img.FragOff)},
		{SecFragBlob, img.FragBlob},
	}, nil
}

// pad8 rounds n up to the next multiple of 8.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// Encode writes img to w in the .nsnap format. The writer sees the bytes in
// file order (header, table, payloads), so Encode composes directly with
// atomicio.WriteFile for crash-safe emission.
func Encode(w io.Writer, img *Image) error {
	secs, err := img.sections()
	if err != nil {
		return err
	}

	// Layout + checksum pass: place every section, CRC its payload.
	table := make([]SectionInfo, len(secs))
	off := uint64(headerSize) + uint64(len(secs))*sectionSize
	for i, s := range secs {
		off = pad8(off)
		table[i] = SectionInfo{
			Kind:   s.kind,
			Offset: off,
			Length: uint64(len(s.payload)),
			CRC:    crc32.Checksum(s.payload, castagnoli),
		}
		off += uint64(len(s.payload))
	}
	fileSize := off

	// Header + section table.
	tb := make([]byte, len(secs)*sectionSize)
	for i, e := range table {
		b := tb[i*sectionSize:]
		binary.LittleEndian.PutUint32(b[0:], uint32(e.Kind))
		binary.LittleEndian.PutUint64(b[8:], e.Offset)
		binary.LittleEndian.PutUint64(b[16:], e.Length)
		binary.LittleEndian.PutUint32(b[24:], e.CRC)
	}
	hb := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hb[0:], Magic)
	binary.LittleEndian.PutUint32(hb[4:], Version)
	binary.LittleEndian.PutUint64(hb[8:], img.Header.Generation)
	binary.LittleEndian.PutUint64(hb[16:], uint64(img.Header.CreatedNs))
	binary.LittleEndian.PutUint64(hb[24:], fileSize)
	binary.LittleEndian.PutUint32(hb[32:], uint32(len(secs)))
	binary.LittleEndian.PutUint32(hb[56:], crc32.Checksum(tb, castagnoli))
	binary.LittleEndian.PutUint32(hb[60:], crc32.Checksum(hb[:60], castagnoli))

	if err := fault.Hit(PointEncode); err != nil {
		return err
	}
	if _, err := w.Write(hb); err != nil {
		return err
	}
	if _, err := w.Write(tb); err != nil {
		return err
	}

	// Payload pass.
	var zeros [8]byte
	pos := uint64(headerSize) + uint64(len(secs))*sectionSize
	for i, s := range secs {
		if err := fault.Hit(PointEncode); err != nil {
			return err
		}
		if padded := pad8(pos); padded != pos {
			if _, err := w.Write(zeros[:padded-pos]); err != nil {
				return err
			}
			pos = padded
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		pos += table[i].Length
	}
	return nil
}

// WriteFile atomically writes img to path (temp + fsync + rename): a crash
// mid-write never leaves a torn snapshot where a loader could find it.
func WriteFile(path string, img *Image) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Encode(w, img)
	})
}

// Checksum returns the CRC-32C of the whole encoded file — the artifact
// store's content checksum. It is computed over b as given.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// validRI reports whether the RI slice is NaN-free and non-increasing — the
// serving invariant (rule id order is rank order) that the binary-searched
// RI prefix depends on.
func validRI(ri []float64) bool {
	for i, v := range ri {
		if math.IsNaN(v) {
			return false
		}
		if i > 0 && v > ri[i-1] {
			return false
		}
	}
	return true
}

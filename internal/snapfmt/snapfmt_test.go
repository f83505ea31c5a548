package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"negmine/internal/fault"
)

// testImage builds a small, fully consistent snapshot image by hand:
// 5 items (apple, beer, bread, drinks, food; beer→drinks→food in the
// taxonomy) and 3 rules. testdata/v2.nsnap is this image as version 2
// wrote it, with its posting lists.
func testImage() *Image {
	img := &Image{
		Header: Header{Generation: 7, CreatedNs: 1_700_000_000_000_000_000},
		Meta: Meta{
			Tool: "test", Source: "synthetic",
			MinSupport: 0.01, MinRI: 1.5,
		},
		RI:       []float64{5, 3.5, 3.5},
		Expected: []float64{0.1, 0.2, 0.3},
		Actual:   []float64{0.5, 0.7, 0.9},
		Off:      []uint32{0, 1, 2, 4, 5, 6, 7},
		SideIDs:  []int32{0, 1, 1, 2, 0, 2, 4},
		NameOffs: []uint32{0, 5, 9, 14, 20, 24},
		NameBlob: []byte("applebeerbreaddrinksfood"),
		AncOff:   []uint32{0, 0, 2, 2, 3, 3},
		AncIDs:   []int32{3, 4, 4},
		// Opaque to the format: any bytes, including an empty fragment.
		FragOff:  []uint64{0, 6, 6, 13},
		FragBlob: []byte("{rule0{rule 2"),
	}
	return img
}

func encode(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// reseal recomputes every checksum in data after a test mutated a payload,
// so structural validation (not CRC) is what rejects the file.
func reseal(data []byte) {
	n := int(binary.LittleEndian.Uint32(data[32:]))
	for i := 0; i < n; i++ {
		e := data[headerSize+i*sectionSize:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := crc32.Checksum(data[off:off+length], castagnoli)
		binary.LittleEndian.PutUint32(e[24:], crc)
	}
	tb := data[headerSize : headerSize+n*sectionSize]
	binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(tb, castagnoli))
	binary.LittleEndian.PutUint32(data[60:], crc32.Checksum(data[:60], castagnoli))
}

func TestRoundTrip(t *testing.T) {
	img := testImage()
	data := encode(t, img)

	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Header.Generation != 7 || got.Header.CreatedNs != img.Header.CreatedNs {
		t.Errorf("header round-trip: got %+v", got.Header)
	}
	if got.Header.Version != Version || got.Header.FileSize != uint64(len(data)) {
		t.Errorf("header version/size: got %+v", got.Header)
	}
	wantMeta := img.Meta
	wantMeta.Rules, wantMeta.Items = 3, 5
	if got.Meta != wantMeta {
		t.Errorf("meta round-trip: got %+v want %+v", got.Meta, wantMeta)
	}
	checks := []struct {
		name      string
		got, want any
	}{
		{"RI", got.RI, img.RI},
		{"Expected", got.Expected, img.Expected},
		{"Actual", got.Actual, img.Actual},
		{"Off", got.Off, img.Off},
		{"SideIDs", got.SideIDs, img.SideIDs},
		{"NameOffs", got.NameOffs, img.NameOffs},
		{"NameBlob", got.NameBlob, img.NameBlob},
		{"AncOff", got.AncOff, img.AncOff},
		{"AncIDs", got.AncIDs, img.AncIDs},
		{"FragOff", got.FragOff, img.FragOff},
		{"FragBlob", got.FragBlob, img.FragBlob},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s round-trip: got %v want %v", c.name, c.got, c.want)
		}
	}
	if got.NumRules() != 3 || got.NumItems() != 5 {
		t.Errorf("counts: %d rules %d items", got.NumRules(), got.NumItems())
	}
	if got.Name(3) != "drinks" {
		t.Errorf("Name(3) = %q", got.Name(3))
	}
	ante, cons := got.RuleSides(1)
	if !reflect.DeepEqual(ante, []int32{1, 2}) || !reflect.DeepEqual(cons, []int32{0}) {
		t.Errorf("RuleSides(1) = %v ⇒ %v", ante, cons)
	}
	if lo, hi := got.RIRange(); lo != 3.5 || hi != 5 {
		t.Errorf("RIRange = %v, %v", lo, hi)
	}
}

func TestEmptyImageRoundTrip(t *testing.T) {
	img := &Image{
		Header:   Header{Generation: 1},
		Off:      []uint32{0},
		NameOffs: []uint32{0},
		AncOff:   []uint32{0},
		FragOff:  []uint64{0},
	}
	data := encode(t, img)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode empty image: %v", err)
	}
	if got.NumRules() != 0 || got.NumItems() != 0 {
		t.Errorf("counts: %d rules %d items", got.NumRules(), got.NumItems())
	}
}

func TestOpenFile(t *testing.T) {
	img := testImage()
	path := filepath.Join(t.TempDir(), "snap.nsnap")
	if err := WriteFile(path, img); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Image.NumRules() != 3 || f.Image.Header.Generation != 7 {
		t.Errorf("opened image: %d rules gen %d", f.Image.NumRules(), f.Image.Header.Generation)
	}
	if f.Size() != int64(len(f.Bytes())) {
		t.Errorf("Size %d != len(Bytes) %d", f.Size(), len(f.Bytes()))
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCorruptionMatrix flips one bit in every section payload, truncates the
// file at several boundaries, and mangles the fixed header — every mutation
// must be rejected, and none may panic.
func TestCorruptionMatrix(t *testing.T) {
	pristine := encode(t, testImage())
	if _, err := Decode(pristine); err != nil {
		t.Fatalf("pristine image must decode: %v", err)
	}
	_, table, err := DecodeHeader(pristine)
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}

	mutate := func(name string, f func(b []byte)) {
		b := bytes.Clone(pristine)
		f(b)
		if bytes.Equal(b, pristine) {
			return // mutation was a no-op (e.g. empty section)
		}
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: corrupted file decoded successfully", name)
		} else if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error does not wrap ErrFormat: %v", name, err)
		}
	}

	// One bit flip inside every non-empty section payload.
	for _, e := range table {
		if e.Length == 0 {
			continue
		}
		mutate("bit flip in "+e.Kind.Name(), func(b []byte) {
			b[e.Offset+e.Length/2] ^= 0x10
		})
	}

	// Header field corruption.
	mutate("bad magic", func(b []byte) { b[0] ^= 0xff })
	mutate("bad version", func(b []byte) {
		binary.LittleEndian.PutUint32(b[4:], Version+1)
		reseal(b)
	})
	mutate("bad file size", func(b []byte) {
		binary.LittleEndian.PutUint64(b[24:], uint64(len(b))+8)
		reseal(b)
	})
	mutate("header bit flip", func(b []byte) { b[17] ^= 0x01 })
	mutate("table bit flip", func(b []byte) { b[headerSize+9] ^= 0x01 })
	mutate("table crc flip", func(b []byte) { b[56] ^= 0x01 })

	// Truncations: mid-header, mid-table, mid-payload, one byte short.
	for _, cut := range []int{0, 1, 13, headerSize - 1, headerSize + 5,
		len(pristine) / 2, len(pristine) - 1} {
		b := pristine[:cut]
		if _, err := Decode(b); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}

	// Structural corruption that re-checksums cleanly: CRCs pass, the
	// validator must still reject.
	structural := []struct {
		name string
		f    func(img *Image)
	}{
		{"ascending RI", func(img *Image) { img.RI[2] = 99 }},
		{"NaN RI", func(img *Image) { img.RI[0] = math.NaN() }},
		{"side id out of range", func(img *Image) { img.SideIDs[0] = 5 }},
		{"negative side id", func(img *Image) { img.SideIDs[0] = -1 }},
		{"off not monotonic", func(img *Image) { img.Off[1] = 6 }},
		{"off overshoots", func(img *Image) { img.Off[6] = 99 }},
		{"name offs overshoot", func(img *Image) { img.NameOffs[5] = 99 }},
		{"ancestor id out of range", func(img *Image) { img.AncIDs[0] = 17 }},
		{"frag-off not monotonic", func(img *Image) { img.FragOff[1] = 7 }},
		{"frag-off overshoots", func(img *Image) { img.FragOff[3] = 99 }},
		{"frag-off does not start at 0", func(img *Image) { img.FragOff[0] = 1 }},
		{"frag-off one entry short", func(img *Image) { img.FragOff = img.FragOff[:3] }},
		{"frag blob longer than frag-off spans", func(img *Image) { img.FragBlob = append(img.FragBlob, '!') }},
	}
	for _, sc := range structural {
		img := testImage()
		sc.f(img)
		var buf bytes.Buffer
		if err := Encode(&buf, img); err != nil {
			continue // encoder itself refused; also fine
		}
		if _, err := Decode(buf.Bytes()); err == nil {
			t.Errorf("structural %s: decoded successfully", sc.name)
		} else if !errors.Is(err, ErrFormat) {
			t.Errorf("structural %s: error does not wrap ErrFormat: %v", sc.name, err)
		}
	}
}

// TestVersion1Rejected pins the upgrade story's floor: a file written
// before the rendered-rule sections existed fails the version check —
// before any section is looked at — like any other version this reader
// does not speak.
func TestVersion1Rejected(t *testing.T) {
	data := encode(t, testImage())
	binary.LittleEndian.PutUint32(data[4:], 1)
	reseal(data)
	for name, decode := range map[string]func([]byte) error{
		"Decode":       func(b []byte) error { _, err := Decode(b); return err },
		"DecodeHeader": func(b []byte) error { _, _, err := DecodeHeader(b); return err },
	} {
		err := decode(data)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Errorf("%s of a version-1 header: %v, want the unsupported-version error", name, err)
		}
	}
}

// TestVersion2Read: a file version 2 wrote — every version-3 section plus
// the nine posting-list sections of kinds 11–19 — decodes to the image it
// was written from, its posting sections skipped, and passes Check.
func TestVersion2Read(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2.nsnap"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode of a version-2 file: %v", err)
	}
	if got.Header.Version != 2 {
		t.Fatalf("version %d, want 2", got.Header.Version)
	}
	want, err := Decode(encode(t, testImage()))
	if err != nil {
		t.Fatal(err)
	}
	got.Header, want.Header = Header{}, Header{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-2 file decodes to\n%+v\nwant\n%+v", got, want)
	}
	_, table, _ := DecodeHeader(data)
	skipped := 0
	for _, e := range table {
		if e.Kind >= 11 && e.Kind <= 19 {
			skipped++
		}
	}
	if len(table) != 21 || skipped != 9 {
		t.Fatalf("fixture has %d sections, %d of kinds 11–19; want 21 and 9", len(table), skipped)
	}
	if rep, err := Check(data); err != nil || !rep.OK {
		t.Fatalf("Check of a version-2 file: %+v, %v", rep, err)
	}
	if _, table, _ := DecodeHeader(encode(t, testImage())); len(table) != 12 {
		t.Fatalf("version %d writes %d sections, want 12", Version, len(table))
	}
}

func TestCheckReportsBadSection(t *testing.T) {
	data := encode(t, testImage())
	rep, err := Check(data)
	if err != nil || !rep.OK {
		t.Fatalf("pristine Check: %+v, %v", rep, err)
	}
	_, table, _ := DecodeHeader(data)
	// Corrupt the RI payload; Check must flag exactly that section.
	var ri SectionInfo
	for _, e := range table {
		if e.Kind == SecRI {
			ri = e
		}
	}
	bad := bytes.Clone(data)
	bad[ri.Offset] ^= 0x01
	rep, err = Check(bad)
	if err != nil {
		t.Fatalf("Check on corrupt payload: %v", err)
	}
	if rep.OK {
		t.Fatal("Check passed a corrupt file")
	}
	var flagged []string
	for _, s := range rep.Sections {
		if !s.OK {
			flagged = append(flagged, s.Kind.Name())
		}
	}
	if len(flagged) != 1 || flagged[0] != "ri" {
		t.Errorf("flagged sections = %v, want [ri]", flagged)
	}

	// Structural-only corruption: every checksum fine, validation fails.
	img := testImage()
	img.RI[2] = 99
	rep, err = Check(encode(t, img))
	if err != nil {
		t.Fatalf("Check structural: %v", err)
	}
	if rep.OK || rep.Structural == "" {
		t.Errorf("structural corruption not reported: %+v", rep)
	}
}

func TestDecodeUnaligned(t *testing.T) {
	data := encode(t, testImage())
	// Force a misaligned base address; Decode must fall back to copying and
	// still produce an identical image.
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	img, err := Decode(buf[1:])
	if err != nil {
		t.Fatalf("Decode misaligned: %v", err)
	}
	if !reflect.DeepEqual(img.RI, []float64{5, 3.5, 3.5}) {
		t.Errorf("misaligned RI = %v", img.RI)
	}
}

// TestCopyingViewsRoundTrip forces the copying path of asBytes and
// fromBytes, the one a big-endian host takes: the encoding must be the
// zero-copy one byte for byte, and decode to the same image in slices of
// its own.
func TestCopyingViewsRoundTrip(t *testing.T) {
	img := testImage()
	want := encode(t, img)
	defer func(old bool) { hostLittle = old }(hostLittle)
	hostLittle = false
	data := encode(t, img)
	if !bytes.Equal(data, want) {
		t.Fatal("copying encode differs from the zero-copy encoding")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"RI", got.RI, img.RI}, {"Expected", got.Expected, img.Expected}, {"Actual", got.Actual, img.Actual},
		{"Off", got.Off, img.Off}, {"SideIDs", got.SideIDs, img.SideIDs}, {"NameOffs", got.NameOffs, img.NameOffs},
		{"AncOff", got.AncOff, img.AncOff}, {"AncIDs", got.AncIDs, img.AncIDs}, {"FragOff", got.FragOff, img.FragOff},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s round-trip: got %v want %v", c.name, c.got, c.want)
		}
	}
	base, end := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
	for name, p := range map[string]unsafe.Pointer{"RI": unsafe.Pointer(&got.RI[0]), "Off": unsafe.Pointer(&got.Off[0])} {
		if uintptr(p) >= base && uintptr(p) <= end {
			t.Errorf("%s aliases the file bytes on the copying path", name)
		}
	}
}

func TestIgnoresUnknownSection(t *testing.T) {
	// Append an unknown section kind; a same-version reader must skip it.
	img := testImage()
	data := encode(t, img)
	_, table, _ := DecodeHeader(data)

	payload := []byte("future payload!!")
	n := len(table) + 1
	var buf bytes.Buffer
	hb := make([]byte, headerSize)
	copy(hb, data[:headerSize])
	tb := make([]byte, n*sectionSize)
	copy(tb, data[headerSize:headerSize+len(table)*sectionSize])
	// Existing payload offsets shift by one table entry (32 bytes), which
	// keeps 8-alignment intact.
	shift := uint64(sectionSize)
	for i := 0; i < len(table); i++ {
		e := tb[i*sectionSize:]
		binary.LittleEndian.PutUint64(e[8:], table[i].Offset+shift)
	}
	last := tb[len(table)*sectionSize:]
	newOff := pad8(uint64(len(data)) + shift)
	binary.LittleEndian.PutUint32(last[0:], uint32(SecFragBlob)+100)
	binary.LittleEndian.PutUint64(last[8:], newOff)
	binary.LittleEndian.PutUint64(last[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(last[24:], crc32.Checksum(payload, castagnoli))

	fileSize := newOff + uint64(len(payload))
	binary.LittleEndian.PutUint64(hb[24:], fileSize)
	binary.LittleEndian.PutUint32(hb[32:], uint32(n))
	binary.LittleEndian.PutUint32(hb[56:], crc32.Checksum(tb, castagnoli))
	binary.LittleEndian.PutUint32(hb[60:], crc32.Checksum(hb[:60], castagnoli))

	buf.Write(hb)
	buf.Write(tb)
	buf.Write(data[headerSize+len(table)*sectionSize:])
	for uint64(buf.Len()) < newOff {
		buf.WriteByte(0)
	}
	buf.Write(payload)

	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode with unknown section: %v", err)
	}
	if got.NumRules() != 3 {
		t.Errorf("rules = %d", got.NumRules())
	}
}

func TestEncodeFailpoint(t *testing.T) {
	defer fault.Enable(PointEncode, fault.Error("writer died"), fault.After(2))()
	var buf bytes.Buffer
	err := Encode(&buf, testImage())
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Encode under failpoint: %v", err)
	}
}

func TestDecodeFailpoint(t *testing.T) {
	data := encode(t, testImage())
	defer fault.Enable(PointDecode, fault.Error("bad snapshot"))()
	if _, err := Decode(data); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Decode under failpoint: %v", err)
	}
}

func TestMmapFailpoint(t *testing.T) {
	img := testImage()
	path := filepath.Join(t.TempDir(), "snap.nsnap")
	if err := WriteFile(path, img); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	defer fault.Enable(PointMmap, fault.Error("map failed"))()
	if _, err := Open(path); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Open under failpoint: %v", err)
	}
}

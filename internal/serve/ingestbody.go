package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"negmine/internal/ruleframe"
)

// presizeIngestBody bounds how much DecodeIngest allocates for its read on
// the strength of an announced length alone.
const presizeIngestBody = 1 << 20

// DecodeIngest reads an /ingest body from r to its end and decodes it. size
// is the body's announced length (an http.Request's ContentLength, -1 when
// unknown) and only sizes the read. The bytes read come back with the batch,
// so a relay can forward them as they came; a read error (such as
// *http.MaxBytesError) is returned as it is.
//
// The batch and the error are what encoding/json's Decoder, with unknown
// fields refused, gives for the body. The common shape is scanned without
// reflection: one object whose keys are "baskets", "key" and "seq", spelled
// so and each at most once; strings without an escape or a control byte
// that are valid UTF-8; seq a plain unsigned integer; nothing after the
// object but whitespace. Its names are substrings of one copy of the body,
// its baskets are carved from one slab, and its key is a copy of its own
// (the dedup window keeps it, and must not keep the body), so a body costs
// the same few allocations whatever it holds. Every other body, each error
// included, is left to encoding/json.
func DecodeIngest(r io.Reader, size int64) (IngestBatch, []byte, error) {
	body, err := readBody(r, size)
	if err != nil {
		return IngestBatch{}, body, err
	}
	if b, ok := scanIngest(body); ok {
		return b, body, nil
	}
	var b IngestBatch
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&b)
	return b, body, err
}

// readBody reads r to its end into one buffer when size announces its
// length, trusting the announcement only up to presizeIngestBody.
func readBody(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(min(size, presizeIngestBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// AppendIngest appends b as an /ingest body, byte for byte as encoding/json
// marshals it.
func AppendIngest(dst []byte, b IngestBatch) []byte {
	dst = append(dst, `{"baskets":`...)
	if b.Baskets == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, basket := range b.Baskets {
			if i > 0 {
				dst = append(dst, ',')
			}
			if basket == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, name := range basket {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = ruleframe.AppendQuoted(dst, name)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if b.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = ruleframe.AppendQuoted(dst, b.Key)
	}
	if b.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, b.Seq, 10)
	}
	return append(dst, '}')
}

// scanIngest decodes body when it has the shape DecodeIngest scans, and
// reports whether it had.
func scanIngest(body []byte) (IngestBatch, bool) {
	sc := ingestScanner{s: string(body)}
	var b IngestBatch
	var seen [3]bool // baskets, key, seq
	if !sc.next('{') {
		return b, false
	}
	for n := 0; !sc.next('}'); n++ {
		if n > 0 && !sc.next(',') {
			return b, false
		}
		key, ok := sc.str()
		if !ok || !sc.next(':') {
			return b, false
		}
		var field int
		switch key {
		case "baskets":
			b.Baskets, ok = sc.baskets()
		case "key":
			field = 1
			b.Key, ok = sc.str()
			b.Key = strings.Clone(b.Key)
		case "seq":
			field = 2
			b.Seq, ok = sc.uint()
		default:
			return b, false
		}
		if !ok || seen[field] {
			return b, false
		}
		seen[field] = true
	}
	sc.space()
	return b, sc.pos == len(sc.s)
}

// ingestScanner walks the copy of a body that scanIngest carves names from.
type ingestScanner struct {
	s   string
	pos int
}

// space consumes JSON whitespace.
func (sc *ingestScanner) space() {
	for ; sc.pos < len(sc.s); sc.pos++ {
		if c := sc.s[sc.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
	}
}

// next consumes whitespace and then c, and reports whether c was there.
func (sc *ingestScanner) next(c byte) bool {
	sc.space()
	if sc.pos < len(sc.s) && sc.s[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// str consumes a string without escapes or control bytes, valid UTF-8, and
// returns what stands between its quotes.
func (sc *ingestScanner) str() (string, bool) {
	if !sc.next('"') {
		return "", false
	}
	n := strings.IndexByte(sc.s[sc.pos:], '"')
	if n < 0 {
		return "", false
	}
	v := sc.s[sc.pos : sc.pos+n]
	sc.pos += n + 1
	var high byte
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < 0x20 || c == '\\' {
			return "", false
		}
		high |= c
	}
	return v, high < utf8.RuneSelf || utf8.ValidString(v)
}

// uint consumes the digits of an unsigned integer that fits a uint64. A
// sign, fraction or exponent after them is left for the caller, which finds
// no comma or brace there.
func (sc *ingestScanner) uint() (uint64, bool) {
	sc.space()
	start := sc.pos
	for sc.pos < len(sc.s) && sc.s[sc.pos] >= '0' && sc.s[sc.pos] <= '9' {
		sc.pos++
	}
	digits := sc.s[start:sc.pos]
	if digits == "" || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil
}

// list consumes an array, calling elem to consume each element, and reports
// whether the array and every element were well formed.
func (sc *ingestScanner) list(elem func() bool) bool {
	if !sc.next('[') {
		return false
	}
	if sc.next(']') {
		return true
	}
	for elem() {
		if sc.next(']') {
			return true
		}
		if !sc.next(',') {
			return false
		}
	}
	return false
}

// baskets consumes the array of baskets. A name takes two quotes and a
// basket an opening bracket, so counting those in the rest of the body
// sizes the name slab and the basket list once; neither grows.
func (sc *ingestScanner) baskets() ([][]string, bool) {
	rest := sc.s[sc.pos:]
	slab := make([]string, 0, strings.Count(rest, `"`)/2)
	out := make([][]string, 0, strings.Count(rest, "["))
	ok := sc.list(func() bool {
		start := len(slab)
		ok := sc.list(func() bool {
			name, ok := sc.str()
			slab = append(slab, name)
			return ok
		})
		out = append(out, slab[start:len(slab):len(slab)])
		return ok
	})
	return out, ok
}

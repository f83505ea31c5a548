// Package ruleframe is the one definition of the bytes that travel the
// routed read path, shared by the shard that writes them (internal/serve)
// and the router that splices them (internal/cluster), and of the JSON
// strings the module writes (AppendQuoted) and reads back (Lexer, the one
// JSON lexer of the module, under the rule report's reader and the /score
// and /ingest parses). It imports no other package of this module.
//
// Two contracts live here.
//
// The document layout: a /rules or /score reply is an envelope prefix (the
// document up to and including the '[' that opens its rule list, rendered
// by encoding/json), the rule objects joined by ",\n", and a tail that
// closes the list and the document — with "partial" and "missingShards"
// spliced in when the router could not reach every shard. Every byte is
// what json.Encoder with SetIndent("", "  ") emits for the public document
// types (cluster.RulesDoc, cluster.ScoreDoc); the differential tests in
// serve and cluster hold it to that. A rule object's fields are rendered by
// AppendRule, for a shard's fragments and for the rule report alike.
//
// The frame: on the shard↔router hop a shard answers a request whose Accept
// header is MediaType with its envelope prefix and, per rule, the merge key
// (rule interest, signature) beside the rule object's bytes, all length
// prefixed, so the router merges and splices without parsing JSON:
//
//	"NRF1"                      magic
//	count      uint32           entries that follow the prefix
//	prefixLen  uint32, prefix   the shard's envelope prefix
//	count × {
//	  riBits   uint64           math.Float64bits of the rule interest
//	  sigLen   uint32, sig      the rule's signature (AppendSignature)
//	  elemLen  uint32, elem     the rule object as it stands in the document
//	}
//
// All integers are little-endian. Entries are in serving order (Less); a
// frame that is torn, carries a NaN, is out of order or has trailing bytes
// does not decode, and the router treats its sender as a failed shard.
package ruleframe

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// MediaType is the Accept value that asks a shard for a frame and the
// Content-Type of the frame it answers with.
const MediaType = "application/vnd.negmine.ruleframe"

// ElemClose closes a rule object in a document's rule list (depth 2 under
// the two-space indent).
const ElemClose = "\n    }"

const magic = "NRF1"

// entryOverhead is the fixed part of one entry: riBits and two lengths.
const entryOverhead = 8 + 4 + 4

// ErrFrame is the error every rejected frame wraps.
var ErrFrame = errors.New("invalid rule frame")

// rulesEnvelope and scoreEnvelope are the documents' fields ahead of the
// rule list, named and ordered as in cluster.RulesDoc and cluster.ScoreDoc.
// The list itself is always encoded empty and cut off after its '['.
type rulesEnvelope struct {
	Item     string     `json:"item"`
	Expanded []string   `json:"expanded"`
	MinRI    float64    `json:"minRI"`
	Rules    []struct{} `json:"rules"`
}

type scoreEnvelope struct {
	Basket  []string   `json:"basket"`
	MinRI   float64    `json:"minRI"`
	Matches []struct{} `json:"matches"`
}

// emptyListTail is what the encoder emits after the '[' of an empty last
// field; a prefix is the encoded envelope without it.
const emptyListTail = "]\n}\n"

// envelopeEncoder is a reusable encoder over its own buffer, so rendering a
// prefix allocates nothing in steady state.
type envelopeEncoder struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	rules rulesEnvelope
	score scoreEnvelope
}

var encoders = sync.Pool{New: func() any {
	e := &envelopeEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	e.rules.Rules = []struct{}{}
	e.score.Matches = []struct{}{}
	return e
}}

func (e *envelopeEncoder) appendPrefix(dst []byte, envelope any) ([]byte, error) {
	e.buf.Reset()
	if err := e.enc.Encode(envelope); err != nil {
		return dst, fmt.Errorf("ruleframe: encoding envelope: %w", err)
	}
	b := e.buf.Bytes()
	return append(dst, b[:len(b)-len(emptyListTail)]...), nil
}

// AppendRulesPrefix appends a /rules document up to and including the '['
// of "rules". It fails only on a minRI JSON cannot carry (NaN, ±Inf).
func AppendRulesPrefix(dst []byte, item string, expanded []string, minRI float64) ([]byte, error) {
	e := encoders.Get().(*envelopeEncoder)
	e.rules.Item, e.rules.Expanded, e.rules.MinRI = item, expanded, minRI
	dst, err := e.appendPrefix(dst, &e.rules)
	e.rules.Item, e.rules.Expanded = "", nil
	encoders.Put(e)
	return dst, err
}

// AppendScorePrefix appends a /score document up to and including the '['
// of "matches".
func AppendScorePrefix(dst []byte, basket []string, minRI float64) ([]byte, error) {
	e := encoders.Get().(*envelopeEncoder)
	e.score.Basket, e.score.MinRI = basket, minRI
	dst, err := e.appendPrefix(dst, &e.score)
	e.score.Basket = nil
	encoders.Put(e)
	return dst, err
}

// AppendQuoted appends s as a JSON string, byte for byte as encoding/json
// writes it (HTML escaping on, U+FFFD for invalid UTF-8). Printable ASCII
// without the five characters the encoder escapes is what it writes
// verbatim, so such a string — nearly every item name — is quoted without
// calling it.
func AppendQuoted(dst []byte, s string) []byte {
	verbatim := true
	for i := 0; i < len(s) && verbatim; i++ {
		c := s[i]
		verbatim = c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	if verbatim {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	e := encoders.Get().(*envelopeEncoder)
	e.buf.Reset()
	// A string always encodes, indentation does not touch it, and the
	// newline Encode ends on is not part of it.
	_ = e.enc.Encode(s)
	dst = append(dst, e.buf.Bytes()[:e.buf.Len()-1]...)
	encoders.Put(e)
	return dst
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form below 1e-6 and
// from 1e21 up with a negative exponent's leading zero dropped. f must be
// finite: JSON has no form for NaN or ±Inf.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// AppendRule appends the fields a report rule and a served rule share, as
// a rule object stands in a document's rule list: opened at depth 2 and left
// unclosed after actualSupport, so the caller appends its own fields and
// then ElemClose. The floats must be finite (AppendFloat).
func AppendRule(dst []byte, antecedent, consequent []string, ri, expected, actual float64) []byte {
	dst = append(dst, "    {\n      \"antecedent\": "...)
	dst = AppendNameList(dst, antecedent)
	dst = append(dst, ",\n      \"consequent\": "...)
	dst = AppendNameList(dst, consequent)
	dst = append(dst, ",\n      \"ruleInterest\": "...)
	dst = AppendFloat(dst, ri)
	dst = append(dst, ",\n      \"expectedSupport\": "...)
	dst = AppendFloat(dst, expected)
	dst = append(dst, ",\n      \"actualSupport\": "...)
	return AppendFloat(dst, actual)
}

// AppendNameList appends names as the value of a field of a rule object:
// null for a nil list, [] for an empty one, else one name a line at depth 4.
func AppendNameList(dst []byte, names []string) []byte {
	if names == nil {
		return append(dst, "null"...)
	}
	if len(names) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n        "...)
		dst = AppendQuoted(dst, name)
	}
	return append(dst, "\n      ]"...)
}

// AppendSep appends what stands between the prefix (i == 0) or the previous
// rule object (i > 0) and rule object i.
func AppendSep(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, '\n')
	}
	return append(dst, ",\n"...)
}

// AppendTail closes a rule list of n objects and the document. A non-empty
// missing marks the document partial and lists the shards it lacks.
func AppendTail(dst []byte, n int, missing []int) []byte {
	if n > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, ']')
	if len(missing) > 0 {
		dst = append(dst, ",\n  \"partial\": true,\n  \"missingShards\": ["...)
		for i, shard := range missing {
			dst = AppendSep(dst, i)
			dst = append(dst, "    "...)
			dst = strconv.AppendInt(dst, int64(shard), 10)
		}
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...)
}

// AppendSignature appends a rule's signature, the one definition of a rule's
// identity by name and of the order rules are stored and tied in: the
// antecedent names joined by "\x1f", "\x1e", then the consequent names
// likewise. Both sides must be sorted; signatures order by bytes.Compare.
func AppendSignature(dst []byte, antecedent, consequent []string) []byte {
	dst = appendJoined(dst, antecedent)
	dst = append(dst, "\x1e"...)
	return appendJoined(dst, consequent)
}

func appendJoined(dst []byte, names []string) []byte {
	for i, name := range names {
		if i > 0 {
			dst = append(dst, "\x1f"...)
		}
		dst = append(dst, name...)
	}
	return dst
}

// AppendHeader starts a frame of count entries behind the given prefix.
func AppendHeader(dst, prefix []byte, count int) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	return appendBytes(dst, prefix)
}

// AppendEntry appends one entry; the caller appends exactly as many as the
// header announced, in serving order.
func AppendEntry(dst []byte, ri float64, sig, elem []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ri))
	dst = appendBytes(dst, sig)
	return appendBytes(dst, elem)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Entry is one rule of a decoded frame. Sig and Elem alias the frame bytes.
type Entry struct {
	RI   float64
	Sig  []byte
	Elem []byte
}

// Less is the serving order: descending rule interest, ties by ascending
// signature — the order a single daemon assigns RuleIDs in.
func Less(a, b *Entry) bool {
	if a.RI != b.RI {
		return a.RI > b.RI
	}
	return bytes.Compare(a.Sig, b.Sig) < 0
}

// Frame is a decoded frame. Its slices alias the bytes given to Decode.
type Frame struct {
	Prefix  []byte
	Entries []Entry
}

func frameErrf(format string, args ...any) error {
	return fmt.Errorf("ruleframe: "+format+": %w", append(args, ErrFrame)...)
}

// Decode parses and validates a frame without copying: it allocates only
// the entry table, and only after checking that the announced count fits
// the bytes that are there. Every error wraps ErrFrame.
func Decode(b []byte) (Frame, error) {
	if len(b) < len(magic)+4 || string(b[:len(magic)]) != magic {
		return Frame{}, frameErrf("no %q header in %d bytes", magic, len(b))
	}
	count := binary.LittleEndian.Uint32(b[len(magic):])
	rest := b[len(magic)+4:]
	prefix, rest, ok := takeBytes(rest)
	if !ok {
		return Frame{}, frameErrf("prefix exceeds the frame")
	}
	if uint64(count)*entryOverhead > uint64(len(rest)) {
		return Frame{}, frameErrf("%d entries announced, %d bytes left", count, len(rest))
	}
	f := Frame{Prefix: prefix, Entries: make([]Entry, count)}
	for i := range f.Entries {
		e := &f.Entries[i]
		if len(rest) < 8 {
			return Frame{}, frameErrf("entry %d of %d is cut off", i, count)
		}
		e.RI = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if math.IsNaN(e.RI) {
			return Frame{}, frameErrf("entry %d: rule interest is NaN", i)
		}
		if e.Sig, rest, ok = takeBytes(rest[8:]); !ok {
			return Frame{}, frameErrf("entry %d of %d is cut off", i, count)
		}
		if e.Elem, rest, ok = takeBytes(rest); !ok {
			return Frame{}, frameErrf("entry %d of %d is cut off", i, count)
		}
		if i > 0 && Less(e, &f.Entries[i-1]) {
			return Frame{}, frameErrf("entry %d is out of serving order", i)
		}
	}
	if len(rest) != 0 {
		return Frame{}, frameErrf("%d bytes after the last entry", len(rest))
	}
	return f, nil
}

// takeBytes splits a length-prefixed byte string off the front of b.
func takeBytes(b []byte) (val, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return nil, nil, false
	}
	return b[:n:n], b[n:], true
}

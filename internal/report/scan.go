package report

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// scanWindow is the size of the window scanNegative reads a document
// through; it grows only to hold a single token longer than itself.
const scanWindow = 64 << 10

// sideChunk is how many names scanNegative carves record sides from at a
// time, so a record's lists cost no allocation of their own.
const sideChunk = 4096

// scanNegative reads the documents WriteNegativeJSON writes, in any JSON
// whitespace, without encoding/json: its own objects with their keys spelled
// as the writer spells them, a repeated key's last value winning as in
// decodeNegative; strings without escapes that are valid UTF-8; numbers in
// JSON's grammar, parsed as encoding/json parses them into the field's type;
// null only for the two record lists; nothing after the document but
// whitespace. On such a document it returns what
// decodeNegative returns, before validation. On anything else — every error
// included — it returns false, and the caller leaves the document to
// decodeNegative, which has the error text for it.
func scanNegative(r io.Reader) (*NegativeReport, bool) {
	s := &scanner{r: r, buf: make([]byte, scanWindow), names: map[string]string{}, sides: make([]string, 0, sideChunk)}
	rep := s.report()
	if s.bad {
		return nil, false
	}
	s.skipSpace()
	if s.pos < s.end || s.err != io.EOF {
		return nil, false
	}
	return rep, true
}

// scanner is scanNegative's state. Once bad is set, every method that reads
// a value returns at once with a zero one, so a caller checks bad only where
// it would otherwise loop.
type scanner struct {
	r        io.Reader
	buf      []byte // the window: buf[pos:end] is read and not yet consumed
	pos, end int
	err      error // what r returned when it stopped; nothing more is read after it
	bad      bool  // the document is not one scanNegative accepts

	names map[string]string // interned strings: names repeat across records
	sides []string          // the chunk record sides are carved from
	tmp   []string          // the side being read
}

// fill reads more of the document behind buf[pos:end], first moving the
// unconsumed bytes to the front, or doubling the window when they fill it.
// It reports whether any byte came.
func (s *scanner) fill() bool {
	if s.err != nil {
		return false
	}
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.err = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// skipSpace consumes JSON whitespace.
func (s *scanner) skipSpace() {
	for {
		for ; s.pos < s.end; s.pos++ {
			if c := s.buf[s.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// peek returns the next byte after whitespace without consuming it, and 0 at
// the end of the input.
func (s *scanner) peek() byte {
	if s.bad {
		return 0
	}
	s.skipSpace()
	if s.pos == s.end {
		s.bad = true
		return 0
	}
	return s.buf[s.pos]
}

// expect consumes the byte c after whitespace.
func (s *scanner) expect(c byte) {
	if s.peek() == c {
		s.pos++
	} else {
		s.bad = true
	}
}

// literal consumes the rest of a keyword whose first byte peek returned.
func (s *scanner) literal(word string) {
	for s.end-s.pos < len(word) && s.fill() {
	}
	if s.bad || s.end-s.pos < len(word) || string(s.buf[s.pos:s.pos+len(word)]) != word {
		s.bad = true
		return
	}
	s.pos += len(word)
}

// token consumes a string or a number and returns its bytes — a string's
// without its quotes — which stay valid until the scanner reads on.
func (s *scanner) token(str bool) []byte {
	if s.bad {
		return nil
	}
	if str {
		s.expect('"')
	} else {
		s.skipSpace()
	}
	for i := s.pos; ; i++ {
		if i == s.end {
			start := s.pos
			if !s.fill() {
				s.bad = true
				return nil
			}
			i -= start // fill moved the token to the front
		}
		c := s.buf[i]
		if str {
			if c == '"' {
				tok := s.buf[s.pos:i]
				s.pos = i + 1
				return tok
			}
			if c < 0x20 || c == '\\' {
				s.bad = true
				return nil
			}
		} else if !(c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			tok := s.buf[s.pos:i]
			s.pos = i
			if !isNumber(tok) {
				s.bad = true
			}
			return tok
		}
	}
}

// isNumber reports whether b is a number in JSON's grammar.
func isNumber(b []byte) bool {
	i := 0
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(b)
}

func (s *scanner) float() float64 {
	tok := s.token(false)
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	s.bad = err != nil
	return f
}

func (s *scanner) int() int {
	tok := s.token(false)
	if s.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	s.bad = err != nil
	return int(n)
}

// name reads a string, interned.
func (s *scanner) name() string {
	tok := s.token(true)
	if s.bad {
		return ""
	}
	if name, ok := s.names[string(tok)]; ok {
		return name
	}
	if !utf8.Valid(tok) {
		s.bad = true // encoding/json would read U+FFFD for the bad bytes
		return ""
	}
	name := string(tok)
	s.names[name] = name
	return name
}

// side reads a list of names into a slice carved from the shared chunk;
// [] is an empty slice, never nil, as encoding/json decodes it.
func (s *scanner) side() []string {
	s.tmp = s.tmp[:0]
	s.seq('[', ']', func() { s.tmp = append(s.tmp, s.name()) })
	if len(s.tmp) > cap(s.sides)-len(s.sides) {
		s.sides = make([]string, 0, max(sideChunk, len(s.tmp)))
	}
	start := len(s.sides)
	s.sides = append(s.sides, s.tmp...)
	return s.sides[start:len(s.sides):len(s.sides)]
}

// seq reads an array or an object, from open to close, calling elem to read
// each element.
func (s *scanner) seq(open, close byte, elem func()) {
	s.expect(open)
	if s.peek() == close {
		s.pos++
		return
	}
	for !s.bad {
		elem()
		if s.peek() == close {
			s.pos++
			return
		}
		s.expect(',')
	}
}

// object reads an object whose keys are among keys, calling value with a
// key's index to read the value behind it.
func (s *scanner) object(keys []string, value func(k int)) {
	s.seq('{', '}', func() {
		tok := s.token(true)
		k := 0
		for k < len(keys) && keys[k] != string(tok) {
			k++
		}
		if k == len(keys) {
			s.bad = true
			return
		}
		s.expect(':')
		value(k)
	})
}

// records reads a record list: nil for null, else one slice allocated at
// its final length. The records are collected in blocks first, so a long
// list is not copied over and over as a growing slice would be.
func records[T any](s *scanner, read func() T) []T {
	if s.peek() == 'n' {
		s.literal("null")
		return nil
	}
	var blocks [][]T
	block := make([]T, 0, 64)
	s.seq('[', ']', func() {
		if len(block) == cap(block) {
			blocks = append(blocks, block)
			block = make([]T, 0, min(2*cap(block), 4096))
		}
		block = append(block, read())
	})
	n := len(block)
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]T, 0, n)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return append(out, block...)
}

var (
	reportKeys  = []string{"minSupport", "minRI", "rules", "negativeItemsets"}
	ruleKeys    = []string{"antecedent", "consequent", "ruleInterest", "expectedSupport", "actualSupport", "negConfidence", "derivedFrom", "via"}
	itemsetKeys = []string{"items", "expectedSupport", "actualSupport", "actualCount", "derivedFrom", "via"}
)

func (s *scanner) report() *NegativeReport {
	rep := &NegativeReport{}
	s.object(reportKeys, func(k int) {
		switch k {
		case 0:
			rep.MinSupport = s.float()
		case 1:
			rep.MinRI = s.float()
		case 2:
			rep.Rules = records(s, s.rule)
		case 3:
			rep.Itemsets = records(s, s.itemset)
		}
	})
	return rep
}

func (s *scanner) rule() (r NegativeRuleRecord) {
	s.object(ruleKeys, func(k int) {
		switch k {
		case 0:
			r.Antecedent = s.side()
		case 1:
			r.Consequent = s.side()
		case 2:
			r.RuleInterest = s.float()
		case 3:
			r.ExpectedSupport = s.float()
		case 4:
			r.ActualSupport = s.float()
		case 5:
			r.NegConfidence = s.float()
		case 6:
			r.DerivedFrom = s.side()
		case 7:
			r.Via = s.name()
		}
	})
	return r
}

func (s *scanner) itemset() (n NegativeItemsetRecord) {
	s.object(itemsetKeys, func(k int) {
		switch k {
		case 0:
			n.Items = s.side()
		case 1:
			n.ExpectedSupport = s.float()
		case 2:
			n.ActualSupport = s.float()
		case 3:
			n.ActualCount = s.int()
		case 4:
			n.DerivedFrom = s.side()
		case 5:
			n.Via = s.name()
		}
	})
	return n
}

package ruleframe

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Lexer reads JSON a token at a time for the module's readers of JSON it
// writes: the rule report (internal/report) and /ingest bodies
// (internal/serve). It reads through a byte window over an io.Reader, which
// grows only to hold one token longer than itself, or over one in-memory
// body, which it never refills. It takes whitespace, punctuation, null and
// numbers in JSON's grammar, and strings with every escape JSON has —
// those AppendQuoted writes among them — decoded as encoding/json decodes
// them.
//
// A Lexer reports no errors. Once it meets what it does not take —
// malformed JSON, a string with a control byte, invalid UTF-8 or a lone
// surrogate (which encoding/json would read as U+FFFD), an object key out
// of place, a read error — Failed reports true and every later call returns
// at once with a zero value. The reader then leaves the input to
// encoding/json, which has the error text for it.
type Lexer struct {
	r        io.Reader // nil when buf is the whole input
	buf      []byte    // buf[pos:end] is read and not yet consumed
	pos, end int
	eof      bool   // nothing is left to read behind buf[:end]
	failed   bool   // see Failed
	esc      []byte // the last string read, decoded, when it had escapes
}

// NewLexer returns a lexer reading r through a window of window bytes.
func NewLexer(r io.Reader, window int) Lexer {
	return Lexer{r: r, buf: make([]byte, window)}
}

// LexBytes returns a lexer over body, which it only reads.
func LexBytes(body []byte) Lexer {
	return Lexer{buf: body, end: len(body), eof: true}
}

// Failed reports whether the input is not one the lexer takes.
func (l *Lexer) Failed() bool { return l.failed }

// fail marks the input as one the lexer does not take, and empties the
// window, so peek need not check.
func (l *Lexer) fail() {
	l.failed = true
	l.end = l.pos
}

// Offset returns how many bytes of the body a LexBytes lexer has consumed.
func (l *Lexer) Offset() int { return l.pos }

// fill reads more of the input behind buf[pos:end], first moving the
// unconsumed bytes to the front, or doubling the window when they fill it.
// It reports whether any byte came; bytes the lexer returned before are
// stale after it.
func (l *Lexer) fill() bool {
	if l.eof || l.failed {
		return false
	}
	if l.pos > 0 {
		l.end = copy(l.buf, l.buf[l.pos:l.end])
		l.pos = 0
	}
	if l.end == len(l.buf) {
		l.buf = append(l.buf, make([]byte, max(len(l.buf), 512))...)
	}
	for {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if l.eof = err == io.EOF; err != nil && !l.eof {
			l.fail()
			return false
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// ensure reads on until n bytes stand unconsumed, and reports whether they do.
func (l *Lexer) ensure(n int) bool {
	for l.end-l.pos < n && l.fill() {
	}
	return l.end-l.pos >= n
}

// skipSpace consumes JSON whitespace.
func (l *Lexer) skipSpace() {
	for {
		for ; l.pos < l.end; l.pos++ {
			if c := l.buf[l.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return
			}
		}
		if !l.fill() {
			return
		}
	}
}

// peek returns the next byte after whitespace without consuming it. The end
// of the input fails the lexer, and peek then returns 0.
func (l *Lexer) peek() byte {
	if l.pos < l.end && l.buf[l.pos] > ' ' {
		return l.buf[l.pos] // no whitespace to skip: the common case
	}
	return l.peekSpace()
}

// peekSpace is peek past whitespace.
func (l *Lexer) peekSpace() byte {
	if l.failed {
		return 0
	}
	l.skipSpace()
	if l.pos == l.end {
		l.fail()
		return 0
	}
	return l.buf[l.pos]
}

// expect consumes c after whitespace, or fails.
func (l *Lexer) expect(c byte) {
	if l.peek() == c {
		l.pos++
	} else {
		l.fail()
	}
}

// Null consumes null if it comes next, and reports whether it did.
func (l *Lexer) Null() bool {
	if l.peek() != 'n' {
		return false
	}
	if l.ensure(4) && string(l.buf[l.pos:l.pos+4]) == "null" {
		l.pos += 4
	} else {
		l.fail()
	}
	return true
}

// End reports whether nothing but whitespace is left of the input.
func (l *Lexer) End() bool {
	l.skipSpace()
	return !l.failed && l.pos == l.end && l.eof
}

// Array reads an array, calling elem to read each element.
func (l *Lexer) Array(elem func()) { l.seq('[', ']', elem) }

// Object reads an object whose keys are among keys (at most 64), each
// spelled so and at most once, calling value with a key's index to read the
// value behind it. Any other key fails the lexer: encoding/json matches
// keys without regard to case, and a repeated one decodes into the value
// the first left.
func (l *Lexer) Object(keys []string, value func(k int)) {
	var seen uint64
	l.seq('{', '}', func() {
		key, _ := l.String()
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			l.fail()
			return
		}
		seen |= 1 << k
		l.expect(':')
		value(k)
	})
}

// seq reads an array or an object, from open to close, calling elem to read
// each element.
func (l *Lexer) seq(open, close byte, elem func()) {
	l.expect(open)
	if l.peek() == close {
		l.pos++
		return
	}
	for !l.failed {
		elem()
		if l.peek() == close {
			l.pos++
			return
		}
		l.expect(',')
	}
}

// String reads a string and returns its decoded bytes, which stay valid
// until the lexer reads on, and whether they stand in the input as they are
// (the string has no escape).
func (l *Lexer) String() ([]byte, bool) {
	l.expect('"')
	if l.failed {
		return nil, false
	}
	for scanned := 0; ; {
		q := bytes.IndexByte(l.buf[l.pos+scanned:l.end], '"')
		if q < 0 {
			scanned = l.end - l.pos
			if !l.fill() {
				l.fail()
				return nil, false
			}
			continue
		}
		raw := l.buf[l.pos : l.pos+scanned+q]
		var high byte
		for _, c := range raw {
			if c < 0x20 || c == '\\' {
				return l.escaped(), false
			}
			high |= c
		}
		if high >= utf8.RuneSelf && !utf8.Valid(raw) {
			l.fail()
			return nil, false
		}
		l.pos += len(raw) + 1
		return raw, true
	}
}

// escaped decodes the rest of a string that has an escape into esc.
func (l *Lexer) escaped() []byte {
	l.esc = l.esc[:0]
	for !l.failed {
		run := l.pos
		for run < l.end && l.buf[run] != '"' && l.buf[run] != '\\' && l.buf[run] >= 0x20 {
			run++
		}
		l.esc = append(l.esc, l.buf[l.pos:run]...)
		l.pos = run
		if run == l.end {
			if !l.fill() {
				break
			}
			continue
		}
		switch c := l.buf[l.pos]; {
		case c == '"' && utf8.Valid(l.esc):
			l.pos++
			return l.esc
		case c == '\\':
			l.unescape()
		default: // a control byte, or invalid UTF-8 before the closing quote
			l.fail()
		}
	}
	l.fail()
	return nil
}

// unescape decodes the escape at pos into esc.
func (l *Lexer) unescape() {
	if !l.ensure(2) {
		l.fail()
		return
	}
	if i := strings.IndexByte(`"\/bfnrt`, l.buf[l.pos+1]); i >= 0 {
		l.esc = append(l.esc, "\"\\/\b\f\n\r\t"[i])
		l.pos += 2
		return
	}
	r := l.hex4()
	if utf16.IsSurrogate(r) {
		// Only a pair is a character; encoding/json reads U+FFFD for a
		// lone half.
		if r = utf16.DecodeRune(r, l.hex4()); r == utf8.RuneError {
			l.fail()
		}
	}
	l.esc = utf8.AppendRune(l.esc, r)
}

// hex4 consumes a \uXXXX escape and returns its code unit.
func (l *Lexer) hex4() rune {
	if !l.ensure(6) || l.buf[l.pos] != '\\' || l.buf[l.pos+1] != 'u' {
		l.fail()
		return utf8.RuneError
	}
	n, err := strconv.ParseUint(string(l.buf[l.pos+2:l.pos+6]), 16, 16)
	if err != nil {
		l.fail()
		return utf8.RuneError
	}
	l.pos += 6
	return rune(n)
}

// number reads a number in JSON's grammar and returns its bytes, which stay
// valid until the lexer reads on.
func (l *Lexer) number() []byte {
	if l.peek(); l.failed {
		return nil
	}
	i := l.pos
	for {
		if i == l.end {
			scanned := i - l.pos
			if !l.fill() {
				break // the number ends the input
			}
			i = l.pos + scanned
		}
		if c := l.buf[i]; !(c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
		i++
	}
	if l.failed { // a read error
		return nil
	}
	tok := l.buf[l.pos:i]
	l.pos = i
	if !isNumber(tok) {
		l.fail()
	}
	return tok
}

// isNumber reports whether b is a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func isNumber(b []byte) bool {
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	n := digits(b)
	if n == 0 || n > 1 && b[0] == '0' {
		return false
	}
	if b = b[n:]; len(b) > 0 && b[0] == '.' {
		if n = digits(b[1:]); n == 0 {
			return false
		}
		b = b[1+n:]
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		if b = b[1:]; len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if n = digits(b); n == 0 {
			return false
		}
		b = b[n:]
	}
	return len(b) == 0
}

// digits returns how many decimal digits b starts with.
func digits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// Float reads a number as encoding/json decodes it into a float64.
func (l *Lexer) Float() float64 {
	f, err := strconv.ParseFloat(string(l.number()), 64)
	if err != nil {
		l.fail()
	}
	return f
}

// Int reads a number as encoding/json decodes it into an int64.
func (l *Lexer) Int() int64 {
	n, err := strconv.ParseInt(string(l.number()), 10, 64)
	if err != nil {
		l.fail()
	}
	return n
}

// Uint reads a number as encoding/json decodes it into a uint64.
func (l *Lexer) Uint() uint64 {
	n, err := strconv.ParseUint(string(l.number()), 10, 64)
	if err != nil {
		l.fail()
	}
	return n
}

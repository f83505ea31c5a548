package ruleframe

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// lexers returns a lexer over in held in memory, and one reading it through
// a one-byte window that a reader refills a byte at a time.
func lexers(in []byte) []Lexer {
	return []Lexer{LexBytes(in), NewLexer(iotest.OneByteReader(bytes.NewReader(in)), 1)}
}

// FuzzLexQuoted: the lexer reads every string AppendQuoted writes back as
// json.Unmarshal does — the string itself, or U+FFFD for each invalid byte
// — held in memory and through a window refilled a byte at a time.
func FuzzLexQuoted(f *testing.F) {
	for _, s := range []string{"", "pepsi", `<a href="x">&amp;`, `back\slash`, "tab\there\b\f\r\n", "nul\x00\x1f",
		"bad\xffutf8", "\xed\xa0\x80", "line\u2028sep\u2029", "日本語", "🛒", "del\x7f", "AT&T"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		quoted := AppendQuoted(nil, s)
		var want string
		if err := json.Unmarshal(quoted, &want); err != nil {
			t.Fatal(err)
		}
		for _, l := range lexers(quoted) {
			got, verbatim := l.String()
			if l.Failed() || string(got) != want || !l.End() {
				t.Fatalf("%q: read %q (failed %v), json.Unmarshal %q", quoted, got, l.Failed(), want)
			}
			if verbatim == bytes.ContainsRune(quoted, '\\') {
				t.Fatalf("%q: verbatim = %v", quoted, verbatim)
			}
		}
	})
}

// TestLexStrings covers the escapes AppendQuoted never writes, and the
// strings the lexer leaves to encoding/json.
func TestLexStrings(t *testing.T) {
	for in, want := range map[string]string{
		`"\/\b\f\u00e9\u00E9"`:  "/\b\fé\u00e9",
		`"\ud83d\uded2 \uFFFD"`: "🛒 \ufffd",
		`"a\"b\\c\u0000"`:       "a\"b\\c\x00",
		"\"\u2028日本\"":          "\u2028日本",
		"\"x\\n\"  ":            "x\n",
		`"\u0041\u0042\u0043"`:  "ABC",
	} {
		for _, l := range lexers([]byte(in)) {
			if got, _ := l.String(); l.Failed() || string(got) != want || !l.End() {
				t.Errorf("%s: read %q (failed %v), want %q", in, got, l.Failed(), want)
			}
		}
	}
	for _, in := range []string{
		`"\ud83d"`, `"\ud83d\u0041"`, `"\udec2\ud83d"`, `"\ud83dx"`, // lone surrogates
		`"\x"`, `"\u12"`, `"\u12g4"`, `"\u+123"`, `"\`, `"abc`, // bad escapes, no closing quote
		"\"tab\there\"", "\"bad\xff\"", "\"bad\xc3\\n\"", "\"\\n\xff\"", // control byte, invalid UTF-8
	} {
		for _, l := range lexers([]byte(in)) {
			if got, _ := l.String(); !l.Failed() {
				t.Errorf("%q: read %q, want it left to encoding/json", in, got)
			}
		}
	}
}

// TestLexReadError: a read error fails the lexer wherever it falls, even
// where the end of the input would complete the token.
func TestLexReadError(t *testing.T) {
	for in, read := range map[string]func(*Lexer){
		`"abc`:  func(l *Lexer) { l.String() },
		`"a\u0`: func(l *Lexer) { l.String() },
		`12`:    func(l *Lexer) { l.Float() },
		`nu`:    func(l *Lexer) { l.Null() },
		`{} `:   func(l *Lexer) { l.Object(nil, nil); l.End() },
	} {
		l := NewLexer(io.MultiReader(strings.NewReader(in), iotest.ErrReader(errors.New("torn"))), 1)
		if read(&l); !l.Failed() || l.End() {
			t.Errorf("%q then a read error: failed %v", in, l.Failed())
		}
	}
}

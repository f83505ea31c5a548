package report

import (
	"io"

	"negmine/internal/ruleframe"
)

// scanWindow is the size of the window scanNegative reads a document
// through; it grows only to hold a single token longer than itself.
const scanWindow = 64 << 10

// sideChunk is how many names scanNegative carves record sides from at a
// time, so a record's lists cost no allocation of their own.
const sideChunk = 4096

// scanNegative reads a report through ruleframe's lexer: the documents
// WriteNegativeJSON writes, in any JSON whitespace and with any escapes —
// the writer's keys, each at most once; strings, numbers parsed as
// encoding/json parses them into the field's type; null only for the two
// record lists; nothing after the document but whitespace. On such a
// document it returns what one Decode of the whole document returns. On
// anything else it returns false, and the caller leaves the document to
// encoding/json, which has the error text for it.
func scanNegative(r io.Reader) (*NegativeReport, bool) {
	s := &scanner{Lexer: ruleframe.NewLexer(r, scanWindow), names: map[string]string{}, sides: make([]string, 0, sideChunk)}
	rep := s.report()
	if !s.End() {
		return nil, false
	}
	return rep, true
}

// scanner is scanNegative's state: the lexer, and what record fields are
// carved from.
type scanner struct {
	ruleframe.Lexer
	names map[string]string // interned strings: names repeat across records
	sides []string          // the chunk record sides are carved from
	tmp   []string          // the side being read
}

// name reads a string, interned.
func (s *scanner) name() string {
	tok, _ := s.String()
	if name, ok := s.names[string(tok)]; ok || s.Failed() {
		return name
	}
	name := string(tok)
	s.names[name] = name
	return name
}

// side reads a list of names into a slice carved from the shared chunk;
// [] is an empty slice, never nil, as encoding/json decodes it.
func (s *scanner) side() []string {
	s.tmp = s.tmp[:0]
	s.Array(func() { s.tmp = append(s.tmp, s.name()) })
	if len(s.tmp) > cap(s.sides)-len(s.sides) {
		s.sides = make([]string, 0, max(sideChunk, len(s.tmp)))
	}
	start := len(s.sides)
	s.sides = append(s.sides, s.tmp...)
	return s.sides[start:len(s.sides):len(s.sides)]
}

// records reads a record list: nil for null, else one slice allocated at
// its final length. The records are collected in blocks first, so a long
// list is not copied over and over as a growing slice would be.
func records[T any](s *scanner, read func() T) []T {
	if s.Null() {
		return nil
	}
	var blocks [][]T
	block := make([]T, 0, 64)
	s.Array(func() {
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
	s.Object(reportKeys, func(k int) {
		switch k {
		case 0:
			rep.MinSupport = s.Float()
		case 1:
			rep.MinRI = s.Float()
		case 2:
			rep.Rules = records(s, s.rule)
		case 3:
			rep.Itemsets = records(s, s.itemset)
		}
	})
	return rep
}

func (s *scanner) rule() (r NegativeRuleRecord) {
	s.Object(ruleKeys, func(k int) {
		switch k {
		case 0:
			r.Antecedent = s.side()
		case 1:
			r.Consequent = s.side()
		case 2:
			r.RuleInterest = s.Float()
		case 3:
			r.ExpectedSupport = s.Float()
		case 4:
			r.ActualSupport = s.Float()
		case 5:
			r.NegConfidence = s.Float()
		case 6:
			r.DerivedFrom = s.side()
		case 7:
			r.Via = s.name()
		}
	})
	return r
}

func (s *scanner) itemset() (n NegativeItemsetRecord) {
	s.Object(itemsetKeys, func(k int) {
		switch k {
		case 0:
			n.Items = s.side()
		case 1:
			n.ExpectedSupport = s.Float()
		case 2:
			n.ActualSupport = s.Float()
		case 3:
			n.ActualCount = int(s.Int())
		case 4:
			n.DerivedFrom = s.side()
		case 5:
			n.Via = s.name()
		}
	})
	return n
}

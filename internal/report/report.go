// Package report serializes mining results — negative rules, negative
// itemsets and positive rules — as JSON or CSV for downstream tooling
// (spreadsheets, dashboards, rule stores).
//
// All writers resolve item ids through a name function so output is
// human-readable; records are emitted in the deterministic order the miners
// produce.
package report

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"negmine/internal/apriori"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/negative"
)

// PointRead is the failpoint evaluated at the top of ReadNegativeJSON;
// arming it models a report file that cannot be read back (torn disk,
// permission flap) without having to corrupt a real file.
const PointRead = "report.read"

// NegativeRuleRecord is the exported form of one negative rule.
type NegativeRuleRecord struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	RuleInterest    float64  `json:"ruleInterest"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
	NegConfidence   float64  `json:"negConfidence"`
	DerivedFrom     []string `json:"derivedFrom,omitempty"`
	Via             string   `json:"via,omitempty"`
}

// NegativeItemsetRecord is the exported form of one negative itemset.
type NegativeItemsetRecord struct {
	Items           []string `json:"items"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
	ActualCount     int      `json:"actualCount"`
	DerivedFrom     []string `json:"derivedFrom,omitempty"`
	Via             string   `json:"via,omitempty"`
}

// PositiveRuleRecord is the exported form of one positive rule.
type PositiveRuleRecord struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
}

// NegativeReport bundles a whole negative mining run for JSON export.
type NegativeReport struct {
	MinSupport float64                 `json:"minSupport"`
	MinRI      float64                 `json:"minRI"`
	Rules      []NegativeRuleRecord    `json:"rules"`
	Itemsets   []NegativeItemsetRecord `json:"negativeItemsets"`
}

func names(s item.Itemset, name func(item.Item) string) []string {
	out := make([]string, s.Len())
	for i, x := range s {
		out[i] = name(x)
	}
	return out
}

// BuildNegative converts a mining result into its exportable form.
func BuildNegative(res *negative.Result, minSup, minRI float64, name func(item.Item) string) *NegativeReport {
	rep := &NegativeReport{MinSupport: minSup, MinRI: minRI}
	for _, r := range res.Rules {
		rep.Rules = append(rep.Rules, NegativeRuleRecord{
			Antecedent:      names(r.Antecedent, name),
			Consequent:      names(r.Consequent, name),
			RuleInterest:    r.RI,
			ExpectedSupport: r.Expected,
			ActualSupport:   r.Actual,
			NegConfidence:   r.NegConfidence,
			DerivedFrom:     names(r.Source, name),
			Via:             r.Via.String(),
		})
	}
	for _, n := range res.Negatives {
		rep.Itemsets = append(rep.Itemsets, NegativeItemsetRecord{
			Items:           names(n.Set, name),
			ExpectedSupport: n.Expected,
			ActualSupport:   n.Actual(),
			ActualCount:     n.Count,
			DerivedFrom:     names(n.Source, name),
			Via:             n.Via.String(),
		})
	}
	return rep
}

// WriteNegativeJSON writes a full negative mining run as indented JSON.
func WriteNegativeJSON(w io.Writer, res *negative.Result, minSup, minRI float64, name func(item.Item) string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildNegative(res, minSup, minRI, name))
}

// WriteNegativeCSV writes the negative rules as CSV with the header
// antecedent,consequent,ruleInterest,expectedSupport,actualSupport. Itemset
// sides are space-joined.
func WriteNegativeCSV(w io.Writer, res *negative.Result, name func(item.Item) string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"antecedent", "consequent", "ruleInterest", "expectedSupport", "actualSupport"}); err != nil {
		return err
	}
	for _, r := range res.Rules {
		rec := []string{
			strings.Join(names(r.Antecedent, name), " "),
			strings.Join(names(r.Consequent, name), " "),
			formatFloat(r.RI),
			formatFloat(r.Expected),
			formatFloat(r.Actual),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePositiveJSON writes positive rules as an indented JSON array.
func WritePositiveJSON(w io.Writer, rules []apriori.Rule, name func(item.Item) string) error {
	recs := make([]PositiveRuleRecord, 0, len(rules))
	for _, r := range rules {
		recs = append(recs, PositiveRuleRecord{
			Antecedent: names(r.Antecedent, name),
			Consequent: names(r.Consequent, name),
			Support:    r.Support,
			Confidence: r.Confidence,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// WritePositiveCSV writes positive rules as CSV.
func WritePositiveCSV(w io.Writer, rules []apriori.Rule, name func(item.Item) string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"antecedent", "consequent", "support", "confidence"}); err != nil {
		return err
	}
	for _, r := range rules {
		rec := []string{
			strings.Join(names(r.Antecedent, name), " "),
			strings.Join(names(r.Consequent, name), " "),
			formatFloat(r.Support),
			formatFloat(r.Confidence),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadNegativeJSON parses a report previously written by WriteNegativeJSON
// (round-trip support for rule stores). Spurious rules mined from partial
// or corrupt data are indistinguishable from real ones downstream, so the
// reader fails loudly: truncated documents, trailing garbage, and
// structurally invalid records are all errors rather than best-effort
// partial loads.
func ReadNegativeJSON(r io.Reader) (*NegativeReport, error) {
	if err := fault.Hit(PointRead); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	dec := json.NewDecoder(r)
	rep, err := decodeNegative(dec)
	if err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("report: trailing data after document")
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// decodeNegative decodes the report dec holds next as json.Decoder.Decode
// would, but a record at a time: it walks the top-level object by token and
// decodes the rules and negative itemsets one element each, so the decoder
// buffers one record, not the whole document. Keys match their fields as
// Decode matches them, case-insensitively, and unknown keys are skipped. Two
// things differ only on documents no writer of this package makes: the
// first error met is the one reported (Decode scans the whole document
// first, so a syntax error late in it wins over an earlier type error), and
// a repeated array key replaces the earlier array (Decode decodes into its
// elements).
func decodeNegative(dec *json.Decoder) (*NegativeReport, error) {
	var rep NegativeReport
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok == nil { // null leaves the report empty, as Decode does
		return &rep, nil
	}
	if tok != json.Delim('{') {
		return nil, &json.UnmarshalTypeError{Value: kindOf(tok), Type: reflect.TypeOf(rep), Offset: dec.InputOffset()}
	}
	for first := true; dec.More(); first = false {
		tok, err := inner(dec)
		var syntax *json.SyntaxError
		if first && errors.As(err, &syntax) && !strings.HasSuffix(err.Error(), "key string") {
			// Token words a bad first key without what it looked for.
			err = fmt.Errorf("%w looking for beginning of object key string", err)
		}
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		switch {
		case strings.EqualFold(key, "minSupport"):
			err = value(dec, &rep.MinSupport)
		case strings.EqualFold(key, "minRI"):
			err = value(dec, &rep.MinRI)
		case strings.EqualFold(key, "rules"):
			rep.Rules, err = decodeArray[NegativeRuleRecord](dec, "rules")
		case strings.EqualFold(key, "negativeItemsets"):
			rep.Itemsets, err = decodeArray[NegativeItemsetRecord](dec, "negativeItemsets")
		default:
			var skip json.RawMessage
			err = value(dec, &skip)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := inner(dec); err != nil { // the closing brace
		return nil, err
	}
	return &rep, nil
}

// inner and value read a token and decode a value inside the document, where
// its end is unexpected.
func inner(dec *json.Decoder) (json.Token, error) {
	tok, err := dec.Token()
	return tok, unexpected(err)
}

func value(dec *json.Decoder, v any) error { return unexpected(dec.Decode(v)) }

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeArray decodes the array value of the report's field named field one
// element at a time; null is a nil slice.
func decodeArray[T any](dec *json.Decoder, field string) ([]T, error) {
	tok, err := inner(dec)
	if err != nil || tok == nil {
		return nil, err
	}
	if tok != json.Delim('[') {
		return nil, &json.UnmarshalTypeError{Value: kindOf(tok), Type: reflect.TypeOf([]T(nil)), Offset: dec.InputOffset(), Struct: "NegativeReport", Field: field}
	}
	out := []T{}
	for dec.More() {
		var zero T
		out = append(out, zero)
		if err := value(dec, &out[len(out)-1]); err != nil {
			return nil, err
		}
	}
	_, err = inner(dec) // the closing bracket
	return out, err
}

// kindOf names a token's JSON kind as json.UnmarshalTypeError does; a
// composite value is named by its opening delimiter.
func kindOf(tok json.Token) string {
	switch tok.(type) {
	case string:
		return "string"
	case float64, json.Number:
		return "number"
	case bool:
		return "bool"
	}
	if tok == json.Delim('[') {
		return "array"
	}
	return "object"
}

// Validate checks the structural invariants every well-formed report has:
// no rule with an empty side, no empty negative itemset, and supports and
// rule-interest values inside sane ranges. It is what keeps a daemon from
// hot-loading a syntactically valid but semantically garbage report.
func (r *NegativeReport) Validate() error {
	for i, rule := range r.Rules {
		if len(rule.Antecedent) == 0 || len(rule.Consequent) == 0 {
			return fmt.Errorf("report: rule %d: empty antecedent or consequent", i)
		}
		if rule.ExpectedSupport < 0 || rule.ExpectedSupport > 1 ||
			rule.ActualSupport < 0 || rule.ActualSupport > 1 {
			return fmt.Errorf("report: rule %d: support out of [0, 1]", i)
		}
	}
	for i, n := range r.Itemsets {
		if len(n.Items) == 0 {
			return fmt.Errorf("report: negative itemset %d: no items", i)
		}
		if n.ActualCount < 0 {
			return fmt.Errorf("report: negative itemset %d: negative count", i)
		}
	}
	return nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }

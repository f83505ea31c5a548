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
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"negmine/internal/apriori"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/ruleframe"
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

// writeChunk is the buffer size at which WriteNegativeJSON hands its bytes
// to the writer.
const writeChunk = 64 << 10

// WriteNegativeJSON writes a full negative mining run as indented JSON: the
// bytes json.Encoder with SetIndent("", "  ") writes for BuildNegative's
// report, rendered a record at a time into one buffer that goes to w in
// chunks, so neither the report nor the document is ever whole in memory. A
// value JSON cannot carry (NaN, ±Inf) fails with the encoder's error before
// anything is written.
func WriteNegativeJSON(w io.Writer, res *negative.Result, minSup, minRI float64, name func(item.Item) string) error {
	if err := checkFinite(res, minSup, minRI); err != nil {
		return err
	}
	buf := make([]byte, 0, writeChunk+writeChunk/4)
	flush := func(min int) error {
		if len(buf) < min {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	// Non-nil scratch, so an empty side renders [] as names' slices do.
	ante, cons, src := []string{}, []string{}, []string{}
	buf = append(buf, "{\n  \"minSupport\": "...)
	buf = ruleframe.AppendFloat(buf, minSup)
	buf = append(buf, ",\n  \"minRI\": "...)
	buf = ruleframe.AppendFloat(buf, minRI)
	buf = append(buf, ",\n  \"rules\": "...)
	if len(res.Rules) == 0 {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i := range res.Rules {
			r := &res.Rules[i]
			ante = appendNames(ante[:0], r.Antecedent, name)
			cons = appendNames(cons[:0], r.Consequent, name)
			src = appendNames(src[:0], r.Source, name)
			buf = ruleframe.AppendSep(buf, i)
			buf = ruleframe.AppendRule(buf, ante, cons, r.RI, r.Expected, r.Actual)
			buf = append(buf, ",\n      \"negConfidence\": "...)
			buf = ruleframe.AppendFloat(buf, r.NegConfidence)
			buf = appendProvenance(buf, src, r.Via.String())
			if err := flush(writeChunk); err != nil {
				return err
			}
		}
		buf = append(buf, "\n  ]"...)
	}
	buf = append(buf, ",\n  \"negativeItemsets\": "...)
	if len(res.Negatives) == 0 {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i := range res.Negatives {
			n := &res.Negatives[i]
			ante = appendNames(ante[:0], n.Set, name)
			src = appendNames(src[:0], n.Source, name)
			buf = ruleframe.AppendSep(buf, i)
			buf = append(buf, "    {\n      \"items\": "...)
			buf = ruleframe.AppendNameList(buf, ante)
			buf = append(buf, ",\n      \"expectedSupport\": "...)
			buf = ruleframe.AppendFloat(buf, n.Expected)
			buf = append(buf, ",\n      \"actualSupport\": "...)
			buf = ruleframe.AppendFloat(buf, n.Actual())
			buf = append(buf, ",\n      \"actualCount\": "...)
			buf = strconv.AppendInt(buf, int64(n.Count), 10)
			buf = appendProvenance(buf, src, n.Via.String())
			if err := flush(writeChunk); err != nil {
				return err
			}
		}
		buf = append(buf, "\n  ]"...)
	}
	buf = append(buf, "\n}\n"...)
	return flush(0)
}

// appendNames appends the names of s's items to dst.
func appendNames(dst []string, s item.Itemset, name func(item.Item) string) []string {
	for _, x := range s {
		dst = append(dst, name(x))
	}
	return dst
}

// appendProvenance appends a record's derivedFrom and via fields, each left
// out when empty as omitempty leaves it, and closes the record.
func appendProvenance(dst []byte, derivedFrom []string, via string) []byte {
	if len(derivedFrom) > 0 {
		dst = append(dst, ",\n      \"derivedFrom\": "...)
		dst = ruleframe.AppendNameList(dst, derivedFrom)
	}
	if via != "" {
		dst = append(dst, ",\n      \"via\": "...)
		dst = ruleframe.AppendQuoted(dst, via)
	}
	return append(dst, ruleframe.ElemClose...)
}

// checkFinite returns the error json.Encoder returns for the first float of
// the report, in document order, that JSON cannot carry.
func checkFinite(res *negative.Result, minSup, minRI float64) error {
	bad := func(fs ...float64) error {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		}
		return nil
	}
	if err := bad(minSup, minRI); err != nil {
		return err
	}
	for _, r := range res.Rules {
		if err := bad(r.RI, r.Expected, r.Actual, r.NegConfidence); err != nil {
			return err
		}
	}
	for _, n := range res.Negatives {
		if err := bad(n.Expected, n.Actual()); err != nil {
			return err
		}
	}
	return nil
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
//
// The report is what one encoding/json Decode of the whole document
// returns. A reader that can seek (a file) is read first by scanNegative,
// which takes what WriteNegativeJSON writes without encoding/json; on
// anything else it is rewound and decoded, as a reader that cannot seek
// always is.
func ReadNegativeJSON(r io.Reader) (*NegativeReport, error) {
	if err := fault.Hit(PointRead); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep, err := readNegative(r)
	if err == nil {
		err = rep.Validate()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// readNegative is ReadNegativeJSON before validation.
func readNegative(r io.Reader) (*NegativeReport, error) {
	if seeker, ok := r.(io.Seeker); ok {
		if start, err := seeker.Seek(0, io.SeekCurrent); err == nil {
			if rep, ok := scanNegative(r); ok {
				return rep, nil
			}
			if _, err := seeker.Seek(start, io.SeekStart); err != nil {
				return nil, fmt.Errorf("report: rewinding: %w", err)
			}
		}
	}
	var rep NegativeReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("report: trailing data after document")
	}
	return &rep, nil
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

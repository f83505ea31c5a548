package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"negmine/internal/apriori"
	"negmine/internal/item"
	"negmine/internal/negative"
)

func sampleResult() (*negative.Result, func(item.Item) string) {
	name := func(i item.Item) string {
		return map[item.Item]string{1: "pepsi", 2: "chips", 3: "salsa"}[i]
	}
	res := &negative.Result{
		Negatives: []negative.Itemset{
			{Set: item.New(1, 2), Expected: 0.2, Count: 5, N: 100},
		},
		Rules: []negative.Rule{
			{Antecedent: item.New(1), Consequent: item.New(2), RI: 0.75, Expected: 0.2, Actual: 0.05},
			{Antecedent: item.New(1), Consequent: item.New(2, 3), RI: 0.6, Expected: 0.18, Actual: 0.02},
		},
	}
	return res, name
}

func TestNegativeJSONRoundTrip(t *testing.T) {
	res, name := sampleResult()
	var buf bytes.Buffer
	if err := WriteNegativeJSON(&buf, res, 0.1, 0.5, name); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadNegativeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinSupport != 0.1 || rep.MinRI != 0.5 {
		t.Errorf("thresholds = %v/%v", rep.MinSupport, rep.MinRI)
	}
	if len(rep.Rules) != 2 || len(rep.Itemsets) != 1 {
		t.Fatalf("rules=%d itemsets=%d", len(rep.Rules), len(rep.Itemsets))
	}
	r := rep.Rules[0]
	if r.Antecedent[0] != "pepsi" || r.Consequent[0] != "chips" || r.RuleInterest != 0.75 {
		t.Errorf("rule 0 = %+v", r)
	}
	if rep.Rules[1].Consequent[1] != "salsa" {
		t.Errorf("rule 1 consequent = %v", rep.Rules[1].Consequent)
	}
	it := rep.Itemsets[0]
	if it.ActualCount != 5 || it.ActualSupport != 0.05 || it.ExpectedSupport != 0.2 {
		t.Errorf("itemset = %+v", it)
	}
}

func TestNegativeCSV(t *testing.T) {
	res, name := sampleResult()
	var buf bytes.Buffer
	if err := WriteNegativeCSV(&buf, res, name); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("rows = %d", len(records))
	}
	if records[0][0] != "antecedent" {
		t.Errorf("header = %v", records[0])
	}
	if records[1][0] != "pepsi" || records[1][1] != "chips" || records[1][2] != "0.75" {
		t.Errorf("row 1 = %v", records[1])
	}
	if records[2][1] != "chips salsa" {
		t.Errorf("multi-item consequent = %q", records[2][1])
	}
}

func TestPositiveWriters(t *testing.T) {
	name := func(i item.Item) string {
		return map[item.Item]string{1: "bread", 2: "milk"}[i]
	}
	rules := []apriori.Rule{
		{Antecedent: item.New(1), Consequent: item.New(2), Support: 0.4, Confidence: 0.8},
	}
	var buf bytes.Buffer
	if err := WritePositiveJSON(&buf, rules, name); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"confidence": 0.8`) {
		t.Errorf("JSON = %s", buf.String())
	}
	buf.Reset()
	if err := WritePositiveCSV(&buf, rules, name); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(records) != 2 {
		t.Fatalf("CSV: %v, %d rows", err, len(records))
	}
	if records[1][3] != "0.8" {
		t.Errorf("confidence column = %q", records[1][3])
	}
}

// corruptReports are inputs a daemon might hot-load after a torn write or an
// operator mistake: every one must be rejected, never best-effort loaded
// (spurious rules are indistinguishable downstream).
var corruptReports = map[string]string{
	"malformed":        `{not json`,
	"truncated":        `{"minSupport": 0.1, "rules": [{"antecedent": ["a"]`,
	"garbage":          `PK\x03\x04 this is a zip file`,
	"trailing data":    `{"minSupport": 0.1} {"another": "doc"}`,
	"trailing bracket": `{"minSupport": 0.1}]`,
	"trailing brace":   `{"minSupport": 0.1}}`,
	"empty antecedent": `{"rules": [{"antecedent": [], "consequent": ["x"]}]}`,
	"empty consequent": `{"rules": [{"antecedent": ["x"], "consequent": []}]}`,
	"support above 1":  `{"rules": [{"antecedent": ["a"], "consequent": ["b"], "actualSupport": 2.5}]}`,
	"negative support": `{"rules": [{"antecedent": ["a"], "consequent": ["b"], "expectedSupport": -0.1}]}`,
	"empty itemset":    `{"negativeItemsets": [{"items": []}]}`,
	"negative count":   `{"negativeItemsets": [{"items": ["a"], "actualCount": -3}]}`,
	"wrong value type": `{"rules": "not an array"}`,
}

func TestReadNegativeJSONErrors(t *testing.T) {
	for name, in := range corruptReports {
		if _, err := ReadNegativeJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted: %s", name, in)
		}
	}
	// Structural errors identify the offending record.
	_, err := ReadNegativeJSON(strings.NewReader(
		`{"rules": [{"antecedent": ["a"], "consequent": ["b"]}, {"antecedent": [], "consequent": ["x"]}]}`))
	if err == nil || !strings.Contains(err.Error(), "rule 1") {
		t.Errorf("invalid record not located: %v", err)
	}
}

func TestEmptyResult(t *testing.T) {
	var buf bytes.Buffer
	empty := &negative.Result{}
	if err := WriteNegativeJSON(&buf, empty, 0.1, 0.5, func(item.Item) string { return "" }); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadNegativeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rules) != 0 || len(rep.Itemsets) != 0 {
		t.Errorf("empty report = %+v", rep)
	}
	buf.Reset()
	if err := WriteNegativeCSV(&buf, empty, func(item.Item) string { return "" }); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Errorf("empty CSV has %d lines", lines)
	}
}

// wholeDecodeDocs are the documents, beside the round-trip fixture and the
// corrupt reports, that TestReadNegativeJSONMatchesWholeDecode reads both
// ways: an empty report, empty arrays, keys in another case, unknown keys of
// every kind, null, other top-level values and documents cut short.
var wholeDecodeDocs = map[string]string{
	"empty":        `{}`,
	"null":         `null`,
	"null arrays":  `{"rules": null, "negativeItemsets": null, "minRI": 0.2}`,
	"empty arrays": `{"rules": [], "negativeItemsets": []}`,
	"key case":     `{"MINSUPPORT": 0.3, "Rules": [{"antecedent": ["a"], "consequent": ["b"]}], "negativeitemsets": [{"items": ["c"]}]}`,
	"unknown keys": `{"comment": "x", "rules": [{"antecedent": ["a"], "consequent": ["b"], "extra": {"deep": [1, 2]}}], "more": [{"a": null}], "n": 3, "t": true}`,
	"top array":    `[1, 2]`,
	"top number":   `7`,
	"top string":   `"report"`,
	"object rules": `{"rules": {"antecedent": ["a"]}}`,
	"no document":  ``,
	"cut at key":   `{`,
	"cut at value": `{"minRI":`,
	"cut between":  `{"rules": [{"antecedent": ["a"], "consequent": ["b"]},`,
	"cut after":    `{"rules": []`,
	"bad key":      `{"rules": [], 3: 4}`,
}

// readWhole is the reference ReadNegativeJSON is held to: one Decode of the
// whole document, the trailing-data check and Validate.
func readWhole(r io.Reader) (*NegativeReport, error) {
	var rep NegativeReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("report: trailing data after document")
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// TestReadNegativeJSONMatchesWholeDecode: the read returns what one Decode
// of the whole document does — the round-trip fixture, an empty
// report, empty arrays, keys in another case, unknown keys of every kind,
// null, and every corrupt report, error for error.
func TestReadNegativeJSONMatchesWholeDecode(t *testing.T) {
	res, name := sampleResult()
	var fixture bytes.Buffer
	if err := WriteNegativeJSON(&fixture, res, 0.1, 0.5, name); err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{"round trip": fixture.String()}
	for name, in := range wholeDecodeDocs {
		docs[name] = in
	}
	for name, in := range corruptReports {
		docs["corrupt "+name] = in
	}
	for name, in := range docs {
		want, wantErr := readWhole(strings.NewReader(in))
		got, err := ReadNegativeJSON(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, %v; whole decode %+v, %v", name, got, err, want, wantErr)
		}
	}
}

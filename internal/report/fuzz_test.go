package report

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// readSeeds are documents beside the round-trip fixture, the corrupt reports
// and wholeDecodeDocs that the reader must get right: escapes, non-ASCII and
// invalid UTF-8, null where a value or a list goes, repeated keys, keys in
// another case, numbers at the grammar's and float64's edges, type errors
// at every depth, whitespace of every kind.
var readSeeds = []string{
	`{"rules": [{"antecedent": ["\u003ca\u003e"], "consequent": ["b\"\\"], "via": "sib\u006cings"}]}`,
	"{\"rules\": [{\"antecedent\": [\"日本\"], \"consequent\": [\"bad\xff\"]}]}",
	"{\"rules\": [{\"antecedent\": [\"tab\tin\"], \"consequent\": [\"b\"]}]}",
	`{"rules": [{"antecedent": null, "consequent": ["b"], "ruleInterest": null, "via": null}], "minRI": null}`,
	`{"minRI": 0.2, "minRI": 0.3, "rules": [{"antecedent": ["a"], "antecedent": ["c"], "consequent": ["b"]}]}`,
	`{"rules": [{"antecedent": ["a"], "consequent": ["b"]}], "rules": [{"consequent": ["c"]}]}`,
	`{"negativeItemsets": [{"items": ["a"], "actualCount": 3}], "NegativeItemsets": null}`,
	`{"minSupport": -0.0, "minRI": 1E+2, "rules": [{"antecedent": ["a"], "consequent": ["b"], "ruleInterest": 1e-400, "expectedSupport": 0.5e1}]}`,
	`{"minSupport": 01}`, `{"minSupport": 1.}`, `{"minSupport": .5}`, `{"minSupport": +1}`, `{"minSupport": 1e}`,
	`{"rules": [{"antecedent": ["a"], "consequent": ["b"], "ruleInterest": 1e999}]}`,
	`{"negativeItemsets": [{"items": ["a"], "actualCount": 1.5}]}`,
	`{"negativeItemsets": [{"items": ["a"], "actualCount": 99999999999999999999}]}`,
	`{"negativeItemsets": [{"items": ["a"], "actualCount": -0}]}`,
	`{"rules": [1]}`, `{"rules": [{"antecedent": 3}]}`, `{"rules": [{"antecedent": [4]}]}`,
	`{"minRI": "x", "rules": [1]}`, `{"negativeItemsets": [{"items": ["a"], "via": 1}], "minSupport": true}`,
	"\t{\r\n\"minRI\"\t:\n0.5 ,\"rules\":[ ] } \n\t",
	`{"rules": [{"antecedent": ["AT\u0026T", "\ud83d\uded2"], "consequent": ["\/\b\f"], "v\u0069a": "sib\u006cings"}]}`,
	`{"rules": [{"antecedent": ["\ud83d"], "consequent": ["b"]}]}`, `{"rules": [{"antecedent": ["\ud83dx"], "consequent": ["\u12"]}]}`,
	`1e7000`, `{"rules": 1e7000}`, `{"rules": nul}`, `{"rules": nullx}`, `{"minRI": 0.5}}`, `{"minRI": 0.5}]`, `{}{}`, `{} `,
}

// FuzzReadNegativeJSON holds ReadNegativeJSON on a seekable reader, where
// the scanner reads what it takes, to readWhole, one Decode of the whole
// document: value for value and error text for error text, on every input.
func FuzzReadNegativeJSON(f *testing.F) {
	res, name := sampleResult()
	var fixture bytes.Buffer
	if err := WriteNegativeJSON(&fixture, res, 0.1, 0.5, name); err != nil {
		f.Fatal(err)
	}
	f.Add(fixture.Bytes())
	for _, docs := range []map[string]string{corruptReports, wholeDecodeDocs} {
		for _, in := range docs {
			f.Add([]byte(in))
		}
	}
	for _, in := range readSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadNegativeJSON(bytes.NewReader(in))
		whole, wholeErr := readWhole(bytes.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(wholeErr) || !reflect.DeepEqual(got, whole) {
			t.Fatalf("%q: read %+v, %v; whole decode %+v, %v", in, got, err, whole, wholeErr)
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"net/url"
	"sort"
	"strconv"

	"negmine/internal/datagen"
	"negmine/internal/rulestore"
	"negmine/internal/stats"
	"negmine/internal/taxonomy"
)

const (
	readLimit  = 20   // limit= on every /rules and /score
	basketSize = 3    // items per /score basket
	missShare  = 0.10 // share of drawn items that have no rules
)

// readOp is one read against the serving API: GET /rules for Item, or POST
// /score for Basket. The wire form is rendered once, at generation, so the
// load loops spend their CPU on requests rather than on encoding them.
type readOp struct {
	Score  bool
	Item   string
	Basket []string
	path   string // request target of a /rules op
	body   []byte // request body of a /score op
}

func (o readOp) kind() string {
	if o.Score {
		return "score"
	}
	return "rules"
}

func rulesOp(item string) readOp {
	return readOp{Item: item, path: "/rules?item=" + url.QueryEscape(item) + "&limit=" + strconv.Itoa(readLimit)}
}

func scoreOp(basket []string) readOp {
	body, _ := json.Marshal(struct {
		Basket []string `json:"basket"`
		Limit  int      `json:"limit"`
	}{basket, readLimit})
	return readOp{Score: true, Basket: basket, body: body}
}

// genOps draws n reads: half /rules, half /score with 3-item baskets; items
// follow zipf(1.0) over vocab (rank = position), except that one draw in ten
// comes uniformly from misses, items no rule mentions. Equal arguments give
// the same stream.
func genOps(seed int64, n int, vocab, misses []string) ([]readOp, error) {
	z, err := datagen.NewZipf(len(vocab), 1.0)
	if err != nil {
		return nil, err
	}
	src := stats.NewSource(seed)
	draw := func() string {
		if len(misses) > 0 && src.Float64() < missShare {
			return misses[src.Intn(len(misses))]
		}
		return vocab[z.Sample(src)]
	}
	ops := make([]readOp, n)
	for i := range ops {
		if src.Intn(2) == 0 {
			ops[i] = rulesOp(draw())
			continue
		}
		basket := make([]string, basketSize)
		for j := range basket {
			basket[j] = draw()
		}
		ops[i] = scoreOp(basket)
	}
	return ops, nil
}

// encodeOps renders a stream as the bytes that go on the wire, one op per
// line; two streams are the same stream exactly when these are equal.
func encodeOps(ops []readOp) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		if o.Score {
			b.WriteString("POST /score ")
			b.Write(o.body)
		} else {
			b.WriteString("GET " + o.path)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// vocabulary returns the sorted names rules mention, and max miss items:
// taxonomy leaves for which hasRules reports false or, where every leaf
// reaches a rule through an ancestor (the usual case), names the dictionary
// has never seen. Either way the server answers 200 with nothing in it.
func vocabulary(rules []rulestore.Entry, tax *taxonomy.Taxonomy, hasRules func(name string) bool, max int) (vocab, misses []string) {
	seen := map[string]bool{}
	for _, e := range rules {
		for _, side := range [][]string{e.Antecedent, e.Consequent} {
			for _, n := range side {
				if !seen[n] {
					seen[n] = true
					vocab = append(vocab, n)
				}
			}
		}
	}
	sort.Strings(vocab)
	for _, leaf := range tax.Leaves() {
		if len(misses) == max {
			break
		}
		if name := tax.Name(leaf); !hasRules(name) {
			misses = append(misses, name)
		}
	}
	for i := 0; len(misses) < max; i++ {
		misses = append(misses, "unlisted_"+strconv.Itoa(i))
	}
	if len(vocab) == 0 {
		// A rule-less snapshot still has to answer queries.
		vocab = []string{tax.Name(tax.Leaves()[0])}
	}
	return vocab, misses
}

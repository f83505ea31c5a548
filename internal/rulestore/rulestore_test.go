package rulestore

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
)

func names() func(item.Item) string {
	m := map[item.Item]string{1: "pepsi", 2: "chips", 3: "salsa", 4: "water"}
	return func(i item.Item) string { return m[i] }
}

func resultA() *negative.Result {
	return &negative.Result{Rules: []negative.Rule{
		{Antecedent: item.New(1), Consequent: item.New(2), RI: 0.8, Expected: 0.2, Actual: 0.01},
		{Antecedent: item.New(1), Consequent: item.New(3), RI: 0.6, Expected: 0.15, Actual: 0.03},
	}}
}

func resultB() *negative.Result {
	return &negative.Result{Rules: []negative.Rule{
		{Antecedent: item.New(1), Consequent: item.New(2), RI: 0.82, Expected: 0.2, Actual: 0.008}, // tiny drift
		{Antecedent: item.New(1), Consequent: item.New(3), RI: 0.3, Expected: 0.15, Actual: 0.1},   // big drop
		{Antecedent: item.New(4), Consequent: item.New(2), RI: 0.7, Expected: 0.1, Actual: 0},      // new
	}}
}

func TestStoreBasics(t *testing.T) {
	s := New(resultA(), names())
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	e, ok := s.Lookup([]string{"pepsi"}, []string{"chips"})
	if !ok || e.RI != 0.8 {
		t.Errorf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := s.Lookup([]string{"chips"}, []string{"pepsi"}); ok {
		t.Error("reversed rule found")
	}
	all := s.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Signature() >= all[i].Signature() {
			t.Error("All not sorted")
		}
	}
}

func TestCompare(t *testing.T) {
	old := New(resultA(), names())
	new_ := New(resultB(), names())
	d := Compare(old, new_, 0.05)
	if len(d.Appeared) != 1 || d.Appeared[0].Antecedent[0] != "water" {
		t.Errorf("Appeared = %v", d.Appeared)
	}
	if len(d.Disappeared) != 0 {
		t.Errorf("Disappeared = %v", d.Disappeared)
	}
	if len(d.Changed) != 1 || d.Changed[0].New.RI != 0.3 {
		t.Errorf("Changed = %v", d.Changed)
	}
	if d.Unchanged != 1 {
		t.Errorf("Unchanged = %d", d.Unchanged)
	}
	// Reverse direction: the water rule disappears.
	rd := Compare(new_, old, 0.05)
	if len(rd.Disappeared) != 1 || len(rd.Appeared) != 0 {
		t.Errorf("reverse diff: %+v", rd)
	}
	var buf bytes.Buffer
	d.Print(&buf)
	out := buf.String()
	for _, want := range []string{"1 appeared", "+ {water}", "(RI 0.6000 → 0.3000)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadFromJSON(t *testing.T) {
	// Persist run A through the report writer, then load it back and diff
	// against the in-memory run B.
	var buf bytes.Buffer
	if err := report.WriteNegativeJSON(&buf, resultA(), 0.1, 0.5, names()); err != nil {
		t.Fatal(err)
	}
	old, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 {
		t.Fatalf("loaded %d rules", old.Len())
	}
	d := Compare(old, New(resultB(), names()), 0.05)
	if len(d.Appeared) != 1 || len(d.Changed) != 1 || d.Unchanged != 1 {
		t.Errorf("diff after JSON round trip: %+v", d)
	}
	if _, err := Load(strings.NewReader("{bad")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestDiffDeterministic pins that Diff output ordering is independent of
// Go's randomized map iteration: many stores with many rules, compared
// repeatedly, must render byte-identical diffs every time.
func TestDiffDeterministic(t *testing.T) {
	// Enough rules that map iteration order would visibly scramble an
	// unsorted implementation on nearly every run.
	wideResult := func(ris func(i int) float64) *negative.Result {
		res := &negative.Result{}
		for i := 0; i < 60; i++ {
			res.Rules = append(res.Rules, negative.Rule{
				Antecedent: item.New(item.Item(i)),
				Consequent: item.New(item.Item(100 + i%7)),
				RI:         ris(i),
			})
		}
		return res
	}
	wideNames := func(i item.Item) string { return "item-" + string(rune('a'+int(i)%26)) + itoa(int(i)) }
	old := New(wideResult(func(i int) float64 { return 0.5 }), wideNames)
	// Half the rules drift, a few disappear (filtered), a few appear.
	newRes := wideResult(func(i int) float64 {
		if i%2 == 0 {
			return 0.9
		}
		return 0.5
	})
	newRes.Rules = newRes.Rules[:50] // 10 disappear
	for i := 200; i < 210; i++ {     // 10 appear
		newRes.Rules = append(newRes.Rules, negative.Rule{
			Antecedent: item.New(item.Item(i)),
			Consequent: item.New(item.Item(300)),
			RI:         0.7,
		})
	}
	new_ := New(newRes, wideNames)

	var first string
	for run := 0; run < 20; run++ {
		d := Compare(old, new_, 0.05)
		var buf bytes.Buffer
		d.Print(&buf)
		if run == 0 {
			first = buf.String()
			if len(d.Appeared) == 0 || len(d.Disappeared) == 0 || len(d.Changed) == 0 {
				t.Fatalf("degenerate diff: %+v", d)
			}
			continue
		}
		if buf.String() != first {
			t.Fatalf("diff output varies across runs:\n--- run 0:\n%s\n--- run %d:\n%s", first, run, buf.String())
		}
	}
	// The sections themselves are sorted by signature.
	d := Compare(old, new_, 0.05)
	for i := 1; i < len(d.Appeared); i++ {
		if d.Appeared[i-1].Signature() >= d.Appeared[i].Signature() {
			t.Fatal("Appeared not sorted by signature")
		}
	}
	for i := 1; i < len(d.Disappeared); i++ {
		if d.Disappeared[i-1].Signature() >= d.Disappeared[i].Signature() {
			t.Fatal("Disappeared not sorted by signature")
		}
	}
	for i := 1; i < len(d.Changed); i++ {
		if d.Changed[i-1].New.Signature() >= d.Changed[i].New.Signature() {
			t.Fatal("Changed not sorted by signature")
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// TestAllOrder pins All's contract: signature order, one rule per signature.
func TestAllOrder(t *testing.T) {
	all := New(resultB(), names()).All()
	if len(all) != 3 {
		t.Fatalf("All holds %d rules", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Signature() >= all[i].Signature() {
			t.Fatal("All not in signature order")
		}
	}
}

// alphabet holds names that sit next to, or are, the signature's separators
// and the bytes around them, so a store order that is not bytes.Compare over
// ruleframe.AppendSignature, or a key that tells no more apart than the
// joined one did, shows.
var alphabet = []string{"", "\x00", "\x1e", "\x1f", "a", "a\x1f", "ab", ",", "é", "日本"}

// randomEntries draws n rules over alphabet with small sides, repeated sides
// (under other RIs) and a handful of RIs, so duplicates and ties are common.
func randomEntries(rng *rand.Rand, n int) []Entry {
	side := func() []string {
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	es := make([]Entry, n)
	for i := range es {
		if i > 0 && rng.Intn(4) == 0 {
			prev := es[rng.Intn(i)]
			es[i] = Entry{Antecedent: slices.Clone(prev.Antecedent), Consequent: slices.Clone(prev.Consequent)}
		} else {
			es[i] = Entry{Antecedent: side(), Consequent: side()}
		}
		es[i].RI = float64(rng.Intn(4)) / 4
		es[i].Expected, es[i].Actual = rng.Float64(), rng.Float64()
	}
	return es
}

// joinedKey is the signature as the store spelled it while it was a map: a
// string joined from sorted copies of the sides.
func joinedKey(e Entry) string {
	a, c := slices.Clone(e.Antecedent), slices.Clone(e.Consequent)
	sort.Strings(a)
	sort.Strings(c)
	return strings.Join(a, "\x1f") + "\x1e" + strings.Join(c, "\x1f")
}

// mapStore is the store as it was: a map from joinedKey, the last rule of a
// key kept, read out in sort.Strings order of the keys.
type mapStore map[string]Entry

func newMapStore(es []Entry) mapStore {
	m := mapStore{}
	for _, e := range es {
		e.Antecedent, e.Consequent = slices.Clone(e.Antecedent), slices.Clone(e.Consequent)
		sort.Strings(e.Antecedent)
		sort.Strings(e.Consequent)
		m[joinedKey(e)] = e
	}
	return m
}

func (m mapStore) all() []Entry {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// compareMaps is Compare as it was over the map: walk both maps, then sort
// each section by the joined key.
func compareMaps(old, new mapStore, riTolerance float64) *Diff {
	d := &Diff{}
	for sig, ne := range new {
		oe, ok := old[sig]
		switch {
		case !ok:
			d.Appeared = append(d.Appeared, ne)
		case math.Abs(ne.RI-oe.RI) > riTolerance:
			d.Changed = append(d.Changed, Change{Old: oe, New: ne})
		default:
			d.Unchanged++
		}
	}
	for sig, oe := range old {
		if _, ok := new[sig]; !ok {
			d.Disappeared = append(d.Disappeared, oe)
		}
	}
	byKey := func(a, b Entry) int { return strings.Compare(joinedKey(a), joinedKey(b)) }
	slices.SortFunc(d.Appeared, byKey)
	slices.SortFunc(d.Disappeared, byKey)
	slices.SortFunc(d.Changed, func(a, b Change) int { return byKey(a.New, b.New) })
	return d
}

// TestOrderMatchesJoinedKey holds the sorted store to the map it replaced on
// random stores over alphabet: the same rules in the same order, the last of
// a signature kept, by every constructor; Lookup finding each; and Compare
// equal to the map's diff section by section.
func TestOrderMatchesJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		es := randomEntries(rng, rng.Intn(40))
		want := newMapStore(es)

		rep := &report.NegativeReport{}
		res := &negative.Result{}
		var dict []string // item i is named dict[i]
		intern := func(names []string) item.Itemset {
			var ids []item.Item
			for _, name := range names {
				ids = append(ids, item.Item(len(dict)))
				dict = append(dict, name)
			}
			return item.New(ids...)
		}
		for _, e := range es {
			rep.Rules = append(rep.Rules, report.NegativeRuleRecord{Antecedent: e.Antecedent, Consequent: e.Consequent,
				RuleInterest: e.RI, ExpectedSupport: e.Expected, ActualSupport: e.Actual})
			res.Rules = append(res.Rules, negative.Rule{Antecedent: intern(e.Antecedent), Consequent: intern(e.Consequent),
				RI: e.RI, Expected: e.Expected, Actual: e.Actual})
		}
		stores := map[string]*Store{
			"FromReport":  FromReport(rep),
			"New":         New(res, func(x item.Item) string { return dict[x] }),
			"FromEntries": FromEntries(slices.Clone(es)),
		}
		for name, st := range stores {
			if got := st.All(); !reflect.DeepEqual(got, want.all()) || st.Len() != len(want) {
				t.Fatalf("trial %d: %s holds\n%q\nwant\n%q", trial, name, got, want.all())
			}
		}
		st := stores["FromEntries"]
		for _, e := range es {
			got, ok := st.Lookup(e.Antecedent, e.Consequent)
			if !ok || !reflect.DeepEqual(got, want[joinedKey(e)]) {
				t.Fatalf("trial %d: Lookup(%q, %q) = %v, %v", trial, e.Antecedent, e.Consequent, got, ok)
			}
		}
		if _, ok := st.Lookup([]string{"absent"}, nil); ok {
			t.Fatalf("trial %d: Lookup found an absent rule", trial)
		}

		next := randomEntries(rng, rng.Intn(40))
		if len(es) > 0 {
			next = append(next, es[:rng.Intn(len(es))]...) // some rules carry over
		}
		for _, tol := range []float64{0, 0.3} {
			got := Compare(st, FromEntries(slices.Clone(next)), tol)
			if want := compareMaps(want, newMapStore(next), tol); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, tolerance %v: Compare = %+v\nwant %+v", trial, tol, got, want)
			}
		}
	}
}

// TestFromReport pins that the in-process hook matches the JSON round trip.
func TestFromReport(t *testing.T) {
	var buf bytes.Buffer
	if err := report.WriteNegativeJSON(&buf, resultA(), 0.1, 0.5, names()); err != nil {
		t.Fatal(err)
	}
	viaJSON, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.ReadNegativeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	direct := FromReport(rep)
	d := Compare(viaJSON, direct, 0)
	if len(d.Appeared) != 0 || len(d.Disappeared) != 0 || len(d.Changed) != 0 || d.Unchanged != 2 {
		t.Fatalf("FromReport diverges from Load: %+v", d)
	}
}

// TestAllAllocs pins All at no allocation: it returns the store's own slice.
func TestAllAllocs(t *testing.T) {
	res := &negative.Result{}
	for i := 0; i < 500; i++ {
		res.Rules = append(res.Rules, negative.Rule{
			Antecedent: item.New(item.Item(i), item.Item(1000+i%13)),
			Consequent: item.New(item.Item(2000 + i%29)),
			RI:         float64(i%7) / 7,
		})
	}
	s := New(res, func(i item.Item) string { return "item-" + itoa(int(i)) })
	if allocs := testing.AllocsPerRun(20, func() { s.All() }); allocs != 0 {
		t.Fatalf("All: %v allocs/op, want 0", allocs)
	}
}

// TestNewMatchesFromReport pins that a store built straight from a mine
// holds exactly what the report path builds from it.
func TestNewMatchesFromReport(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := datagen.Scaled(datagen.Short(), 50)
		p.NumTransactions = 600 + 100*int(seed)
		p.Seed = seed
		tax, db, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		opt := negative.Options{MinSupport: 0.15, MinRI: 0.3}
		res, err := negative.Mine(db, tax, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) == 0 {
			t.Fatalf("seed %d: the mine found no rules", seed)
		}
		got := New(res, tax.Name).All()
		want := FromReport(report.BuildNegative(res, opt.MinSupport, opt.MinRI, tax.Name)).All()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: New holds %d rules, FromReport∘BuildNegative %d, or they differ", seed, len(got), len(want))
		}
	}
}

func TestNameOrderIrrelevant(t *testing.T) {
	// Two runs over dictionaries with different interning orders must
	// still match by name signature.
	res := &negative.Result{Rules: []negative.Rule{
		{Antecedent: item.New(5, 9), Consequent: item.New(7), RI: 0.5},
	}}
	nameA := func(i item.Item) string { return map[item.Item]string{5: "a", 9: "b", 7: "c"}[i] }
	res2 := &negative.Result{Rules: []negative.Rule{
		{Antecedent: item.New(9, 5), Consequent: item.New(7), RI: 0.5},
	}}
	nameB := func(i item.Item) string { return map[item.Item]string{9: "a", 5: "b", 7: "c"}[i] }
	d := Compare(New(res, nameA), New(res2, nameB), 0.01)
	if len(d.Appeared) != 0 || len(d.Disappeared) != 0 || d.Unchanged != 1 {
		t.Errorf("name identity broken: %+v", d)
	}
}

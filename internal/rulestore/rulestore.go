// Package rulestore manages collections of mined negative rules across
// mining runs: persistence (via the report JSON format), indexed lookups by
// item, and diffing two runs — the marketing workflow the paper motivates
// ("which negative associations appeared since last quarter?").
package rulestore

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
)

// Store holds one run's negative rules with name-based identity (so two
// runs over differently-interned dictionaries still compare correctly).
type Store struct {
	rules map[string]Entry // keyed by canonical "a…=/=>c…" signature
}

// Entry is one stored rule with name-resolved sides.
type Entry struct {
	Antecedent []string
	Consequent []string
	RI         float64
	Expected   float64
	Actual     float64
}

// Signature returns the canonical identity of the rule (sorted names).
func (e Entry) Signature() string {
	return signature(e.Antecedent, e.Consequent)
}

func signature(ante, cons []string) string {
	a := append([]string(nil), ante...)
	c := append([]string(nil), cons...)
	sort.Strings(a)
	sort.Strings(c)
	return strings.Join(a, "\x1f") + "\x1e" + strings.Join(c, "\x1f")
}

// String renders the entry.
func (e Entry) String() string {
	return fmt.Sprintf("{%s} =/=> {%s} (RI=%.4f)",
		strings.Join(e.Antecedent, " "), strings.Join(e.Consequent, " "), e.RI)
}

// New builds a store from a mining result.
func New(res *negative.Result, name func(item.Item) string) *Store {
	s := &Store{rules: map[string]Entry{}}
	for _, r := range res.Rules {
		e := Entry{
			Antecedent: sortedNames(r.Antecedent, name),
			Consequent: sortedNames(r.Consequent, name),
			RI:         r.RI,
			Expected:   r.Expected,
			Actual:     r.Actual,
		}
		s.rules[e.Signature()] = e
	}
	return s
}

func sortedNames(set item.Itemset, name func(item.Item) string) []string {
	out := make([]string, set.Len())
	for i, x := range set {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

// Load reads a store from the report JSON format (WriteNegativeJSON).
func Load(r io.Reader) (*Store, error) {
	rep, err := report.ReadNegativeJSON(r)
	if err != nil {
		return nil, err
	}
	return FromReport(rep), nil
}

// FromReport indexes an already-parsed report (the in-process hook used by
// the serving layer, which holds a report rather than a JSON stream).
func FromReport(rep *report.NegativeReport) *Store {
	s := &Store{rules: map[string]Entry{}}
	for _, rr := range rep.Rules {
		e := Entry{
			Antecedent: append([]string(nil), rr.Antecedent...),
			Consequent: append([]string(nil), rr.Consequent...),
			RI:         rr.RuleInterest,
			Expected:   rr.ExpectedSupport,
			Actual:     rr.ActualSupport,
		}
		sort.Strings(e.Antecedent)
		sort.Strings(e.Consequent)
		s.rules[e.Signature()] = e
	}
	return s
}

// Len returns the number of stored rules.
func (s *Store) Len() int { return len(s.rules) }

// All returns the rules sorted by signature (deterministic). Every rule is
// stored under its own signature, so sorting the keys sorts the rules.
func (s *Store) All() []Entry {
	sigs := make([]string, 0, len(s.rules))
	for sig := range s.rules {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]Entry, len(sigs))
	for i, sig := range sigs {
		out[i] = s.rules[sig]
	}
	return out
}

// Each calls fn for every rule in deterministic (signature) order, stopping
// early when fn returns false. It is the iteration hook consumers that build
// their own indexes (e.g. the serving snapshot) use: unlike All it lets them
// stop early, and its ordering contract is pinned by tests.
func (s *Store) Each(fn func(Entry) bool) {
	for _, e := range s.All() {
		if !fn(e) {
			return
		}
	}
}

// Lookup returns the stored entry matching the given sides, if any.
func (s *Store) Lookup(ante, cons []string) (Entry, bool) {
	e, ok := s.rules[signature(ante, cons)]
	return e, ok
}

// ByItem returns all rules mentioning the named item on either side.
func (s *Store) ByItem(name string) []Entry {
	var out []Entry
	for _, e := range s.All() {
		if contains(e.Antecedent, name) || contains(e.Consequent, name) {
			out = append(out, e)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Diff compares two runs (typically two time periods of the same store's
// data). Thresholding noise is absorbed by riTolerance: a rule present in
// both runs counts as Changed only when |ΔRI| exceeds it.
type Diff struct {
	Appeared    []Entry  // in new, not in old
	Disappeared []Entry  // in old, not in new
	Changed     []Change // in both, RI moved beyond tolerance
	Unchanged   int
}

// Change pairs a rule's old and new measurements.
type Change struct {
	Old, New Entry
}

// Compare diffs old → new.
func Compare(old, new *Store, riTolerance float64) *Diff {
	d := &Diff{}
	for sig, ne := range new.rules {
		oe, ok := old.rules[sig]
		switch {
		case !ok:
			d.Appeared = append(d.Appeared, ne)
		case abs(ne.RI-oe.RI) > riTolerance:
			d.Changed = append(d.Changed, Change{Old: oe, New: ne})
		default:
			d.Unchanged++
		}
	}
	for sig, oe := range old.rules {
		if _, ok := new.rules[sig]; !ok {
			d.Disappeared = append(d.Disappeared, oe)
		}
	}
	sortEntries(d.Appeared)
	sortEntries(d.Disappeared)
	sort.Slice(d.Changed, func(i, j int) bool {
		return d.Changed[i].New.Signature() < d.Changed[j].New.Signature()
	})
	return d
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Signature() < es[j].Signature() })
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Print renders the diff as a human-readable changelog.
func (d *Diff) Print(w io.Writer) {
	fmt.Fprintf(w, "rule diff: %d appeared, %d disappeared, %d changed, %d unchanged\n",
		len(d.Appeared), len(d.Disappeared), len(d.Changed), d.Unchanged)
	for _, e := range d.Appeared {
		fmt.Fprintf(w, "  + %s\n", e)
	}
	for _, e := range d.Disappeared {
		fmt.Fprintf(w, "  - %s\n", e)
	}
	for _, c := range d.Changed {
		fmt.Fprintf(w, "  ~ %s (RI %.4f → %.4f)\n", c.New, c.Old.RI, c.New.RI)
	}
}

// Package rulestore manages collections of mined negative rules across
// mining runs: persistence (via the report JSON format), lookups by a rule's
// sides, and diffing two runs — the marketing workflow the paper motivates
// ("which negative associations appeared since last quarter?").
//
// A store is one slice of rules sorted by signature (ruleframe.AppendSignature,
// the rule's identity by name), built once: every signature is appended to one
// byte slab at construction and read back from it, never built again.
package rulestore

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/ruleframe"
)

// Store holds one run's negative rules with name-based identity (so two
// runs over differently-interned dictionaries still compare correctly).
type Store struct {
	entries []Entry // sorted by signature, one rule per signature
	sigs    []byte  // entries[i]'s signature is sigs[offs[i]:offs[i+1]]
	offs    []int
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
	a, c := slices.Clone(e.Antecedent), slices.Clone(e.Consequent)
	slices.Sort(a)
	slices.Sort(c)
	return string(ruleframe.AppendSignature(nil, a, c))
}

// String renders the entry.
func (e Entry) String() string {
	return fmt.Sprintf("{%s} =/=> {%s} (RI=%.4f)",
		strings.Join(e.Antecedent, " "), strings.Join(e.Consequent, " "), e.RI)
}

// New builds a store from a mining result.
func New(res *negative.Result, name func(item.Item) string) *Store {
	total := 0
	for _, r := range res.Rules {
		total += r.Antecedent.Len() + r.Consequent.Len()
	}
	names := make([]string, 0, total) // every side is a subslice of names
	side := func(set item.Itemset) []string {
		start := len(names)
		for _, x := range set {
			names = append(names, name(x))
		}
		return names[start:len(names):len(names)]
	}
	es := make([]Entry, len(res.Rules))
	for i, r := range res.Rules {
		es[i] = Entry{side(r.Antecedent), side(r.Consequent), r.RI, r.Expected, r.Actual}
	}
	return FromEntries(es)
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
	es := make([]Entry, len(rep.Rules))
	for i, rr := range rep.Rules {
		es[i] = Entry{slices.Clone(rr.Antecedent), slices.Clone(rr.Consequent), rr.RuleInterest, rr.ExpectedSupport, rr.ActualSupport}
	}
	return FromEntries(es)
}

// FromEntries stores es, sorting each rule's sides in place. Of rules with
// the same signature the last one is kept.
func FromEntries(es []Entry) *Store {
	slab, offs := []byte(nil), make([]int, len(es)+1)
	for i := range es {
		e := &es[i]
		sort.Strings(e.Antecedent)
		sort.Strings(e.Consequent)
		slab = ruleframe.AppendSignature(slab, e.Antecedent, e.Consequent)
		offs[i+1] = len(slab)
	}
	sig := func(i int32) []byte { return slab[offs[i]:offs[i+1]] }
	ids := make([]int32, len(es))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Or(bytes.Compare(sig(a), sig(b)), cmp.Compare(a, b)) })

	s := &Store{entries: make([]Entry, 0, len(es)), sigs: make([]byte, 0, len(slab)), offs: make([]int, 1, len(es)+1)}
	for k, id := range ids {
		if k+1 < len(ids) && bytes.Equal(sig(id), sig(ids[k+1])) {
			continue // a later rule has the same signature
		}
		s.entries = append(s.entries, es[id])
		s.sigs = append(s.sigs, sig(id)...)
		s.offs = append(s.offs, len(s.sigs))
	}
	return s
}

func (s *Store) sig(i int) []byte { return s.sigs[s.offs[i]:s.offs[i+1]] }

// Len returns the number of stored rules.
func (s *Store) Len() int { return len(s.entries) }

// All returns the rules in signature order; a rule's index is its store
// position. The slice is the store's own: callers must not modify it.
func (s *Store) All() []Entry { return s.entries }

// Lookup returns the stored entry matching the given sides, if any.
func (s *Store) Lookup(ante, cons []string) (Entry, bool) {
	sig := Entry{Antecedent: ante, Consequent: cons}.Signature()
	i := sort.Search(s.Len(), func(i int) bool { return string(s.sig(i)) >= sig })
	if i < s.Len() && string(s.sig(i)) == sig {
		return s.entries[i], true
	}
	return Entry{}, false
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

// Compare diffs old → new. Both stores are in signature order, so one merge
// of the two yields every section in signature order.
func Compare(old, new *Store, riTolerance float64) *Diff {
	d := &Diff{}
	i, j := 0, 0
	for i < old.Len() && j < new.Len() {
		oe, ne := old.entries[i], new.entries[j]
		switch c := bytes.Compare(old.sig(i), new.sig(j)); {
		case c < 0:
			d.Disappeared = append(d.Disappeared, oe)
			i++
		case c > 0:
			d.Appeared = append(d.Appeared, ne)
			j++
		default:
			if math.Abs(ne.RI-oe.RI) > riTolerance {
				d.Changed = append(d.Changed, Change{Old: oe, New: ne})
			} else {
				d.Unchanged++
			}
			i, j = i+1, j+1
		}
	}
	d.Disappeared = append(d.Disappeared, old.entries[i:]...)
	d.Appeared = append(d.Appeared, new.entries[j:]...)
	return d
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

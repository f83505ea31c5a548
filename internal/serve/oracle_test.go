package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
)

// reference is a deliberately naive serving implementation used as the
// oracle for the arena/bitmap Snapshot: linear scans over a ranked entry
// slice and name-based ancestor walks, no interning, no bitmaps. Any
// divergence between the two layouts is a bug in the fast one.
type reference struct {
	ranked []rulestore.Entry // descending RI, ties in signature order
	parent map[string]string
}

func newReference(st *rulestore.Store, parent map[string]string) *reference {
	r := &reference{parent: parent}
	st.Each(func(e rulestore.Entry) bool {
		r.ranked = append(r.ranked, e)
		return true
	})
	sort.SliceStable(r.ranked, func(i, j int) bool { return r.ranked[i].RI > r.ranked[j].RI })
	return r
}

func (r *reference) expand(name string) []string {
	out := []string{name}
	for p, ok := r.parent[name]; ok; p, ok = r.parent[p] {
		out = append(out, p)
	}
	return out
}

func (r *reference) query(name string, minRI float64, limit int) []rulestore.Entry {
	exp := map[string]bool{}
	for _, n := range r.expand(name) {
		exp[n] = true
	}
	var out []rulestore.Entry
	for _, e := range r.ranked {
		if e.RI < minRI {
			break
		}
		hit := false
		for _, n := range e.Antecedent {
			if exp[n] {
				hit = true
			}
		}
		for _, n := range e.Consequent {
			if exp[n] {
				hit = true
			}
		}
		if !hit {
			continue
		}
		out = append(out, e)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

func (r *reference) score(basket []string, minRI float64, limit int) []Match {
	satisfied := map[string]bool{}
	for _, b := range basket {
		for _, n := range r.expand(b) {
			satisfied[n] = true
		}
	}
	var out []Match
	for _, e := range r.ranked {
		if e.RI < minRI {
			break
		}
		covered := true
		for _, n := range e.Antecedent {
			if !satisfied[n] {
				covered = false
			}
		}
		if !covered {
			continue
		}
		trig := map[string]string{}
		for _, a := range e.Antecedent {
			for _, b := range basket {
				sup := false
				for _, n := range r.expand(b) {
					if n == a {
						sup = true
					}
				}
				if sup {
					trig[a] = b
					break
				}
			}
		}
		out = append(out, Match{Rule: e, Triggers: trig})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// randomWorld builds a random taxonomy (a forest over tN names), a pool of
// extra non-taxonomy names, and a random rule store with heavy RI ties.
func randomWorld(t *testing.T, rng *rand.Rand) (*rulestore.Store, *taxonomy.Taxonomy, map[string]string, []string) {
	t.Helper()
	nTax := 8 + rng.Intn(20)
	parent := map[string]string{}
	b := taxonomy.NewBuilder()
	names := make([]string, nTax)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	for i := 1; i < nTax; i++ {
		if rng.Float64() < 0.8 {
			p := names[rng.Intn(i)]
			b.Link(p, names[i])
			parent[names[i]] = p
		}
	}
	// A taxonomy needs at least one edge; guarantee it.
	if len(parent) == 0 {
		b.Link(names[0], names[1])
		parent[names[1]] = names[0]
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatalf("taxonomy.Build: %v", err)
	}

	pool := append([]string(nil), names...)
	for i := 0; i < 4; i++ {
		pool = append(pool, fmt.Sprintf("x%d", i)) // rule-only names, no ancestors
	}
	riLevels := []float64{0.2, 0.4, 0.6, 0.8} // few levels → many rank ties
	rep := &report.NegativeReport{}
	nRules := 20 + rng.Intn(60)
	for i := 0; i < nRules; i++ {
		side := func(n int) []string {
			seen := map[string]bool{}
			var out []string
			for len(out) < n {
				x := pool[rng.Intn(len(pool))]
				if !seen[x] {
					seen[x] = true
					out = append(out, x)
				}
			}
			return out
		}
		rep.Rules = append(rep.Rules, report.NegativeRuleRecord{
			Antecedent:      side(1 + rng.Intn(3)),
			Consequent:      side(1 + rng.Intn(2)),
			RuleInterest:    riLevels[rng.Intn(len(riLevels))],
			ExpectedSupport: rng.Float64(),
			ActualSupport:   rng.Float64(),
		})
	}
	return rulestore.FromReport(rep), tax, parent, pool
}

// TestSnapshotMatchesNaiveReference cross-checks the arena/bitmap snapshot
// against the naive reference on randomized stores: every QueryItem, Score,
// and Expand answer must be identical, and stay so when asked again.
func TestSnapshotMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		st, tax, parent, pool := randomWorld(t, rng)
		ref := newReference(st, parent)
		snap := BuildSnapshot(st, tax, Meta{})

		minRIs := []float64{0, 0.2, 0.4, 0.5, 0.8, 1.1}
		limits := []int{0, 1, 3, 1000}
		queries := append(append([]string(nil), pool...), "unknown-item")
		for _, name := range queries {
			minRI := minRIs[rng.Intn(len(minRIs))]
			limit := limits[rng.Intn(len(limits))]
			want := ref.query(name, minRI, limit)
			for pass := 0; pass < 2; pass++ {
				if got := snap.QueryEntries(name, minRI, limit); !entriesEqual(got, want) {
					t.Fatalf("trial %d pass %d: QueryEntries(%q, %v, %d) =\n%v\nwant\n%v",
						trial, pass, name, minRI, limit, got, want)
				}
				ids, err := snap.QueryShared(context.Background(), name, minRI, limit)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]rulestore.Entry, len(ids))
				for i, id := range ids {
					got[i] = snap.Entry(id)
				}
				if !entriesEqual(got, want) {
					t.Fatalf("trial %d pass %d: QueryShared(%q, %v, %d) =\n%v\nwant\n%v",
						trial, pass, name, minRI, limit, got, want)
				}
			}
			if got, want := snap.Expand(nil, name), ref.expand(name); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Expand(%q) = %v, want %v", trial, name, got, want)
			}
		}

		for q := 0; q < 20; q++ {
			basket := make([]string, 1+rng.Intn(4))
			for i := range basket {
				basket[i] = pool[rng.Intn(len(pool))]
			}
			if rng.Float64() < 0.3 {
				basket = append(basket, "caviar") // unknown basket item
			}
			minRI := minRIs[rng.Intn(len(minRIs))]
			limit := limits[rng.Intn(len(limits))]
			want := ref.score(basket, minRI, limit)
			if got := snap.Matches(basket, minRI, limit); !matchesEqual(got, want) {
				t.Fatalf("trial %d: Matches(%v, %v, %d) =\n%v\nwant\n%v",
					trial, basket, minRI, limit, got, want)
			}
		}
	}
}

func entriesEqual(a, b []rulestore.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Rule, b[i].Rule) || !reflect.DeepEqual(a[i].Triggers, b[i].Triggers) {
			return false
		}
	}
	return true
}

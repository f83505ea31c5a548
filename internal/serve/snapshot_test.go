package serve

import (
	"reflect"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
)

// testTaxonomy builds:
//
//	beverages ─┬─ soft-drinks ─┬─ pepsi
//	           │               └─ coke
//	           └─ juice
//	snacks ──── chips
func testTaxonomy(t testing.TB) *taxonomy.Taxonomy {
	t.Helper()
	b := taxonomy.NewBuilder()
	b.Link("beverages", "soft-drinks")
	b.Link("soft-drinks", "pepsi")
	b.Link("soft-drinks", "coke")
	b.Link("beverages", "juice")
	b.Link("snacks", "chips")
	tax, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tax
}

func testStore() *rulestore.Store {
	return rulestore.FromReport(&report.NegativeReport{
		MinSupport: 0.02,
		MinRI:      0.3,
		Rules: []report.NegativeRuleRecord{
			{Antecedent: []string{"soft-drinks"}, Consequent: []string{"chips"}, RuleInterest: 0.8, ExpectedSupport: 0.10, ActualSupport: 0.02},
			{Antecedent: []string{"pepsi"}, Consequent: []string{"juice"}, RuleInterest: 0.6, ExpectedSupport: 0.08, ActualSupport: 0.03},
			{Antecedent: []string{"chips"}, Consequent: []string{"beverages"}, RuleInterest: 0.4, ExpectedSupport: 0.06, ActualSupport: 0.04},
		},
	})
}

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	return BuildSnapshot(testStore(), testTaxonomy(t), Meta{Source: "test", MinSupport: 0.02, MinRI: 0.3})
}

func consequents(es []rulestore.Entry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.Consequent[0])
	}
	return out
}

func TestSnapshotQueryItemExpandsAncestors(t *testing.T) {
	snap := testSnapshot(t)

	// pepsi must surface its own rule, the soft-drinks rule (parent) and
	// the beverages rule (grandparent, on the consequent side), by RI desc.
	got := consequents(snap.QueryEntries("pepsi", 0, 0))
	want := []string{"chips", "juice", "beverages"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryItem(pepsi) consequents = %v, want %v", got, want)
	}

	// coke shares soft-drinks/beverages ancestry but has no own rule.
	got = consequents(snap.QueryEntries("coke", 0, 0))
	want = []string{"chips", "beverages"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryItem(coke) consequents = %v, want %v", got, want)
	}

	// Unknown items match nothing.
	if rs := snap.QueryEntries("caviar", 0, 0); len(rs) != 0 {
		t.Fatalf("QueryItem(caviar) = %v, want none", rs)
	}
}

func TestSnapshotQueryItemThresholdAndLimit(t *testing.T) {
	snap := testSnapshot(t)

	if got := consequents(snap.QueryEntries("pepsi", 0.5, 0)); !reflect.DeepEqual(got, []string{"chips", "juice"}) {
		t.Fatalf("minRI 0.5 consequents = %v", got)
	}
	if got := consequents(snap.QueryEntries("pepsi", 0, 1)); !reflect.DeepEqual(got, []string{"chips"}) {
		t.Fatalf("limit 1 consequents = %v", got)
	}
}

func TestSnapshotExpand(t *testing.T) {
	snap := testSnapshot(t)
	if got := snap.Expand(nil, "pepsi"); !reflect.DeepEqual(got, []string{"pepsi", "soft-drinks", "beverages"}) {
		t.Fatalf("Expand(pepsi) = %v", got)
	}
	if got := snap.Expand(nil, "beverages"); !reflect.DeepEqual(got, []string{"beverages"}) {
		t.Fatalf("Expand(beverages) = %v", got)
	}
	if got := snap.Expand(nil, "nope"); !reflect.DeepEqual(got, []string{"nope"}) {
		t.Fatalf("Expand(nope) = %v", got)
	}
}

func TestSnapshotScore(t *testing.T) {
	snap := testSnapshot(t)

	// A pepsi basket covers {pepsi} and, via ancestors, {soft-drinks} —
	// but not {chips}.
	matches := snap.Matches([]string{"pepsi"}, 0, 0)
	if got := []string{matches[0].Rule.Consequent[0], matches[1].Rule.Consequent[0]}; len(matches) != 2 ||
		got[0] != "chips" || got[1] != "juice" {
		t.Fatalf("Score(pepsi) = %+v", matches)
	}
	// The soft-drinks rule was triggered by the concrete basket item.
	if trig := matches[0].Triggers["soft-drinks"]; trig != "pepsi" {
		t.Fatalf("soft-drinks trigger = %q, want pepsi", trig)
	}

	// Per-request threshold.
	if m := snap.Matches([]string{"pepsi"}, 0.7, 0); len(m) != 1 || m[0].Rule.Consequent[0] != "chips" {
		t.Fatalf("Score(pepsi, 0.7) = %+v", m)
	}

	// chips triggers only its own rule; unknown items are ignored.
	if m := snap.Matches([]string{"chips", "caviar"}, 0, 0); len(m) != 1 || m[0].Rule.Consequent[0] != "beverages" {
		t.Fatalf("Score(chips, caviar) = %+v", m)
	}
}

func TestSnapshotWithoutTaxonomy(t *testing.T) {
	snap := BuildSnapshot(testStore(), nil, Meta{})
	// Exact-name matching still works...
	if got := consequents(snap.QueryEntries("pepsi", 0, 0)); !reflect.DeepEqual(got, []string{"juice"}) {
		t.Fatalf("QueryItem(pepsi) without taxonomy = %v", got)
	}
	// ...but no ancestor expansion happens.
	if got := snap.Expand(nil, "pepsi"); !reflect.DeepEqual(got, []string{"pepsi"}) {
		t.Fatalf("Expand(pepsi) without taxonomy = %v", got)
	}
}

func TestSnapshotInfo(t *testing.T) {
	snap := testSnapshot(t)
	info := snap.Info()
	if info.Rules != 3 {
		t.Fatalf("Rules = %d, want 3", info.Rules)
	}
	// soft-drinks, chips, pepsi, juice, beverages appear in rules.
	if info.IndexedItems != 5 {
		t.Fatalf("IndexedItems = %d, want 5", info.IndexedItems)
	}
	if info.Source != "test" || info.MinSupport != 0.02 || info.MinRI != 0.3 {
		t.Fatalf("meta not carried: %+v", info)
	}
	if info.Built.IsZero() || snap.Age() < 0 {
		t.Fatalf("bad build time: %+v", info)
	}
}

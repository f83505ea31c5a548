package cluster

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"negmine/internal/rulestore"
)

func TestMergeRulesReconstructsGlobalOrder(t *testing.T) {
	// Build a global rule set, rank it the way a single daemon would
	// (RI desc, signature asc), then shard it and check the merge of the
	// per-shard ranked lists reproduces the global ranking exactly.
	rng := rand.New(rand.NewSource(1))
	items := []string{"bread", "milk", "beer", "eggs", "jam", "tea", "rice", "soda"}
	var all []WireRule
	for i := 0; i < 64; i++ {
		a := items[rng.Intn(len(items))]
		b := items[rng.Intn(len(items))]
		if a == b {
			continue
		}
		// Quantized RI so ties actually occur and exercise the signature
		// tiebreak.
		all = append(all, WireRule{
			Antecedent:   []string{a},
			Consequent:   []string{b},
			RuleInterest: float64(rng.Intn(5)) / 4,
		})
	}
	global := append([]WireRule(nil), all...)
	sort.SliceStable(global, func(i, j int) bool { return ruleLess(&global[i], &global[j]) })

	const shards = 3
	lists := make([][]WireRule, shards)
	for _, r := range all {
		s := ShardOfAntecedent(r.Antecedent, shards)
		lists[s] = append(lists[s], r)
	}
	for s := range lists {
		sort.SliceStable(lists[s], func(i, j int) bool { return ruleLess(&lists[s][i], &lists[s][j]) })
	}

	merged := MergeRules(lists, 0)
	if len(merged) != len(global) {
		t.Fatalf("merged %d rules, want %d", len(merged), len(global))
	}
	for i := range merged {
		if !reflect.DeepEqual(merged[i], global[i]) {
			t.Fatalf("rank %d: merged %v, want %v", i, merged[i], global[i])
		}
	}

	limited := MergeRules(lists, 5)
	if len(limited) != 5 {
		t.Fatalf("limit: got %d rules", len(limited))
	}
	for i := range limited {
		if !reflect.DeepEqual(limited[i], global[i]) {
			t.Fatalf("limited rank %d diverges from global order", i)
		}
	}
}

func TestMergeEmptyEncodesAsArray(t *testing.T) {
	b, err := json.Marshal(MergeRules(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Fatalf("empty rule merge encodes as %s, want []", b)
	}
	b, err = json.Marshal(MergeMatches([][]WireMatch{{}, nil}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Fatalf("empty match merge encodes as %s, want []", b)
	}
}

// TestSignatureMatchesRulestoreFormat pins that the merge breaks RI ties in
// the order a rule store keeps its rules, by rulestore.Entry.Signature, also
// for names beside and equal to the signature's separators.
func TestSignatureMatchesRulestoreFormat(t *testing.T) {
	names := []string{"", "\x00", "\x1e", "\x1f", "a", "a\x1f", "ab"}
	var rules []WireRule
	for _, a := range names {
		for _, c := range names {
			rules = append(rules, WireRule{Antecedent: []string{a}, Consequent: []string{c}, RuleInterest: 0.5})
		}
	}
	sig := func(r *WireRule) string {
		return rulestore.Entry{Antecedent: r.Antecedent, Consequent: r.Consequent}.Signature()
	}
	for i := range rules {
		for j := range rules {
			if got, want := ruleLess(&rules[i], &rules[j]), sig(&rules[i]) < sig(&rules[j]); got != want {
				t.Fatalf("ruleLess(%q, %q) = %v, want %v", sig(&rules[i]), sig(&rules[j]), got, want)
			}
		}
	}
}

func TestMergeTiesBreakBySignature(t *testing.T) {
	a := WireRule{Antecedent: []string{"b"}, Consequent: []string{"x"}, RuleInterest: 0.5}
	b := WireRule{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.5}
	merged := MergeRules([][]WireRule{{a}, {b}}, 0)
	if merged[0].Antecedent[0] != "a" || merged[1].Antecedent[0] != "b" {
		t.Fatalf("tie not broken by signature: %v", merged)
	}
}

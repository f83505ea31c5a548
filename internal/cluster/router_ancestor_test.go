package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

// TestRouterScoreAncestorTriggeredRule pins "a response is complete or says
// it is partial" for rules the router cannot locate from the basket alone:
// real shard servers, a rule whose antecedent is a category living on shard
// 1, and a basket of that category's leaf, which hashes to shard 0. The
// merged reply must be byte-identical to one unsharded daemon's.
func TestRouterScoreAncestorTriggeredRule(t *testing.T) {
	const shards = 2
	items := pickItems(t, shards)
	leaf, category, other := items[0], items[1], "other"
	if got := ShardsForBasket([]string{leaf}, shards); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ShardsForBasket([leaf]) = %v, want [0]", got)
	}

	tb := taxonomy.NewBuilder()
	tb.Link(category, leaf)
	tb.Node(other)
	tax, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := rulestore.FromReport(&report.NegativeReport{Rules: []report.NegativeRuleRecord{
		{Antecedent: []string{category}, Consequent: []string{other}, RuleInterest: 0.9},
		{Antecedent: []string{leaf}, Consequent: []string{other}, RuleInterest: 0.6},
	}})
	handler := func(keep func(ante, cons []string) bool) http.Handler {
		snap := serve.BuildSnapshot(st, tax, serve.Meta{Source: "test", Keep: keep})
		srv, err := serve.NewServer(context.Background(),
			func(context.Context) (*serve.Snapshot, error) { return snap, nil },
			serve.WithLogger(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	var backends [][]*shardBackend
	for k := 0; k < shards; k++ {
		k := k
		ts := httptest.NewServer(handler(func(ante, _ []string) bool { return ShardOfAntecedent(ante, shards) == k }))
		t.Cleanup(ts.Close)
		backends = append(backends, []*shardBackend{{t: t, srv: ts}})
	}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, backends...)

	body := fmt.Sprintf(`{"basket": [%q]}`, leaf)
	want, _ := postScore(t, handler(nil), body)
	got, _ := postScore(t, rt.Handler(), body)
	if want.Code != http.StatusOK || !bytes.Contains(want.Body.Bytes(), []byte(category)) {
		t.Fatalf("unsharded reply (status %d) lacks the category-antecedent rule:\n%s", want.Code, want.Body.Bytes())
	}
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("merged /score (status %d) differs from the unsharded reply\nrouter:    %s\nunsharded: %s",
			got.Code, got.Body.Bytes(), want.Body.Bytes())
	}
}

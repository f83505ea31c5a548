package cluster

import (
	"bytes"
	"sort"

	"negmine/internal/ruleframe"
)

// The router's merge is a splice of bytes: shards answer with frames
// (internal/ruleframe) whose entries carry the merge key beside each rule's
// rendered JSON, appendMerged k-way merges them, and no reply is decoded or
// re-encoded on the way.
//
// The Go types below are what those bytes mean: the public /rules and
// /score documents, field for field in internal/serve's names and order,
// for Go clients and tests to decode replies into. MergeRules and
// MergeMatches over them are the reference merge — the same serving order
// computed on decoded documents — that the byte merge is tested against;
// the router itself does not call them.

// appendMerged appends the rule list of a merged reply and the document's
// tail to dst, which holds the envelope prefix: the frames' entries in
// serving order (each frame is in that order already; equal keys go lowest
// shard first), cut off at limit (0 = unlimited), then "partial" and the
// missing shard ids when there are any. Shards partition the rule set, so
// the merge is a pure reorder — nothing is deduplicated.
func appendMerged(dst []byte, frames []ruleframe.Frame, limit int, missing []int) []byte {
	next := make([]int, len(frames)) // per frame, the first entry not yet taken
	n := 0
	for limit <= 0 || n < limit {
		var best *ruleframe.Entry
		from := -1
		for k := range frames {
			if next[k] == len(frames[k].Entries) {
				continue
			}
			if e := &frames[k].Entries[next[k]]; best == nil || ruleframe.Less(e, best) {
				best, from = e, k
			}
		}
		if best == nil {
			break
		}
		next[from]++
		dst = ruleframe.AppendSep(dst, n)
		dst = append(dst, best.Elem...)
		n++
	}
	return ruleframe.AppendTail(dst, n, missing)
}

// WireRule is one rule of a /rules document and, embedded in WireMatch, of
// a /score document.
type WireRule struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	RuleInterest    float64  `json:"ruleInterest"`
	ExpectedSupport float64  `json:"expectedSupport"`
	ActualSupport   float64  `json:"actualSupport"`
}

// WireMatch is one triggered rule of a /score document.
type WireMatch struct {
	WireRule
	Triggers map[string]string `json:"triggers"`
}

// RulesDoc is the /rules document as a daemon or the router serves it.
type RulesDoc struct {
	Item     string     `json:"item"`
	Expanded []string   `json:"expanded"`
	MinRI    float64    `json:"minRI"`
	Rules    []WireRule `json:"rules"`
	// Partial marks a degraded router reply: the shards in MissingShards
	// were unreachable and their rules are absent. Never set on a full
	// answer, so a healthy merge is exactly the single-node document.
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missingShards,omitempty"`
}

// ScoreDoc is the /score document as a daemon or the router serves it.
type ScoreDoc struct {
	Basket        []string    `json:"basket"`
	MinRI         float64     `json:"minRI"`
	Matches       []WireMatch `json:"matches"`
	Partial       bool        `json:"partial,omitempty"`
	MissingShards []int       `json:"missingShards,omitempty"`
}

// ruleLess is the serving order on decoded rules (ruleframe.Less on frame
// entries): descending RI, ties by ascending signature. This is exactly the
// order a single daemon assigns RuleIDs in (rulestore signature order,
// ranked by RI), so merging disjoint per-shard ranked lists with it
// reconstructs the single-node ranking. The sides arrive sorted from the
// serving layer, as the signature requires.
func ruleLess(a, b *WireRule) bool {
	if a.RuleInterest != b.RuleInterest {
		return a.RuleInterest > b.RuleInterest
	}
	return bytes.Compare(ruleframe.AppendSignature(nil, a.Antecedent, a.Consequent),
		ruleframe.AppendSignature(nil, b.Antecedent, b.Consequent)) < 0
}

// MergeRules is the reference merge of decoded per-shard /rules lists into
// serving order, truncated to limit (0 = unlimited).
func MergeRules(lists [][]WireRule, limit int) []WireRule {
	out := []WireRule{} // non-nil: an empty result must encode as [], like serve's
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return ruleLess(&out[i], &out[j]) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// MergeMatches is the reference merge of decoded per-shard /score match
// lists into serving order, truncated to limit (0 = unlimited).
func MergeMatches(lists [][]WireMatch, limit int) []WireMatch {
	out := []WireMatch{}
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return ruleLess(&out[i].WireRule, &out[j].WireRule) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

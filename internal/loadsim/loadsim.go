// Package loadsim is the production workload simulator: it drives a live
// negmined (or negrouter) with a configurable mix of POST /ingest,
// POST /score and GET /rules traffic shaped like real retail demand —
// zipfian basket popularity, seasonal drift (the popularity curve rotating
// across the dictionary on a schedule) and flash-sale bursts (a transient
// rate spike concentrated on a few hot items).
//
// The request stream is scripted, not improvised: Script is a pure
// function of (Config, Dict) producing the full op sequence with virtual
// timestamps, so a fixed seed identifies the traffic bit-for-bit and a run
// can be replayed or diffed. Execution (Run) is a producer/worker pipeline
// with a bounded queue — the producer paces ops by their virtual time, the
// workers execute them, and when the target can't keep up the queue
// backpressures the producer, which is exactly the achieved-vs-offered gap
// the result reports.
//
// Rule freshness is measured end to end with tracer itemsets: synthetic
// sibling triples (A, X, B) reserved out of the background traffic, where
// the simulator injects {A,X} baskets and {B} baskets — never {A,B}
// together — at a rate engineered to cross the miner's support threshold.
// The sibling-replacement candidate {A,B} then has expected support ≈
// sup(B) and actual support 0, so the rule A ⇒ ¬B must appear with
// RI ≈ 1 once a refresh covers the planted transactions. The simulator
// records when the last plant batch was acknowledged and polls /rules
// until the rule is served; the deltas form the ingest→visible freshness
// distribution (p50/p99).
package loadsim

import (
	"fmt"
	"sort"
	"time"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
)

// Dict is the item universe the simulator samples from: the leaf item
// names the target daemon's dictionary accepts, plus the sibling groups
// (leaves sharing one taxonomy parent) tracer selection draws triples from.
type Dict struct {
	Items         []string
	SiblingGroups [][]string
}

// DictFromTaxonomy extracts the Dict from a taxonomy file's hierarchy:
// every leaf name, grouped by parent category.
func DictFromTaxonomy(tax *taxonomy.Taxonomy) Dict {
	var d Dict
	byParent := map[item.Item][]string{}
	var parents []item.Item
	for _, l := range tax.Leaves() {
		d.Items = append(d.Items, tax.Name(l))
		p := tax.Parent(l)
		if p == item.None {
			continue
		}
		if _, ok := byParent[p]; !ok {
			parents = append(parents, p)
		}
		byParent[p] = append(byParent[p], tax.Name(l))
	}
	for _, p := range parents {
		if g := byParent[p]; len(g) >= 3 {
			d.SiblingGroups = append(d.SiblingGroups, g)
		}
	}
	return d
}

// Op kinds, in mix-weight order.
const (
	OpIngest = iota
	OpScore
	OpRules
	opKinds
)

var opNames = [opKinds]string{"ingest", "score", "rules"}

// OpName returns the endpoint name of an op kind.
func OpName(kind int) string {
	if kind < 0 || kind >= opKinds {
		return "?"
	}
	return opNames[kind]
}

// Op is one scripted request: its virtual-time offset from run start, the
// endpoint, and the pre-marshalled body (POST ops) or query item (rules).
type Op struct {
	At   time.Duration
	Kind int
	Body []byte // /ingest and /score JSON body; nil for /rules
	Item string // /rules query item
	Txns int    // transactions this op appends (ingest only)
}

// Tracer is one planted sibling triple: baskets {Antecedent, Partner} and
// {Consequent} are injected so the negative rule
// Antecedent ⇒ ¬Consequent must eventually be served.
type Tracer struct {
	Antecedent string // A: only ever bought together with Partner
	Partner    string // X: the large itemset {A,X} the candidate comes from
	Consequent string // B: sibling of X, only ever bought alone
}

// Config parameterizes one simulation run.
type Config struct {
	Target string // base URL of the negmined/negrouter under test
	Seed   int64

	// Traffic shape. Duration is the scripted (virtual) length; RPS the
	// offered request rate at amplitude 1; Workers the executor pool size;
	// QueueDepth the bounded op queue (0 = 2×Workers).
	Duration   time.Duration
	RPS        float64
	Workers    int
	QueueDepth int

	// Endpoint mix weights (normalized internally).
	MixIngest float64
	MixScore  float64
	MixRules  float64

	// Basket model: mean basket length (Poisson ≥ 1), baskets per /ingest
	// request, zipf popularity skew, and the drift schedule (the rank→item
	// rotation advances every DriftEvery ops through DriftPhases phases;
	// DriftPhases ≤ 1 disables drift).
	BasketMean  float64
	IngestBatch int
	Zipf        float64
	DriftEvery  int
	DriftPhases int

	// Flash-sale burst: during [BurstStart, BurstStart+BurstLen) of virtual
	// time the offered rate is multiplied by BurstAmp and item draws
	// concentrate on the BurstHot hottest ranks. BurstLen = 0 disables.
	BurstStart time.Duration
	BurstLen   time.Duration
	BurstAmp   float64
	BurstHot   int

	// Tracer freshness probes. Tracers is how many sibling triples to
	// plant; MinSupport must match the target's mining threshold so plants
	// are sized to cross it; SeedTxns is the transaction count already in
	// the target's log (0 = read from /metrics at run start). PollEvery is
	// the /rules poll cadence and PollTimeout the per-run give-up.
	Tracers     int
	MinSupport  float64
	SeedTxns    int
	PollEvery   time.Duration
	PollTimeout time.Duration

	// ScoreLimit bounds /score responses (0 = server default).
	ScoreLimit int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RPS <= 0 {
		c.RPS = 200
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.MixIngest == 0 && c.MixScore == 0 && c.MixRules == 0 {
		c.MixIngest, c.MixScore, c.MixRules = 0.2, 0.4, 0.4
	}
	if c.BasketMean < 1 {
		c.BasketMean = 4
	}
	if c.IngestBatch <= 0 {
		c.IngestBatch = 16
	}
	if c.BurstLen > 0 && c.BurstAmp <= 0 {
		c.BurstAmp = 4
	}
	if c.BurstLen > 0 && c.BurstHot <= 0 {
		c.BurstHot = 4
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 0.02
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 250 * time.Millisecond
	}
	if c.PollTimeout <= 0 {
		c.PollTimeout = c.Duration + 30*time.Second
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.MixIngest < 0 || c.MixScore < 0 || c.MixRules < 0:
		return fmt.Errorf("loadsim: negative mix weight")
	case c.Zipf < 0:
		return fmt.Errorf("loadsim: Zipf = %v, want ≥ 0", c.Zipf)
	case c.BurstLen > 0 && c.BurstAmp < 1:
		return fmt.Errorf("loadsim: BurstAmp = %v, want ≥ 1", c.BurstAmp)
	case c.Tracers < 0:
		return fmt.Errorf("loadsim: Tracers = %d", c.Tracers)
	case !(c.MinSupport < 1):
		return fmt.Errorf("loadsim: MinSupport = %v, want < 1", c.MinSupport)
	}
	return nil
}

// ChooseTracers picks n sibling triples from the dictionary's groups, one
// per group, in group order — a pure function, so the same Dict always
// yields the same tracers (and Script reserves the same items).
func ChooseTracers(dict Dict, n int) ([]Tracer, error) {
	if n == 0 {
		return nil, nil
	}
	var out []Tracer
	for _, g := range dict.SiblingGroups {
		if len(g) < 3 {
			continue
		}
		// Sorted for independence from taxonomy-walk order.
		sorted := append([]string(nil), g...)
		sort.Strings(sorted)
		out = append(out, Tracer{Antecedent: sorted[0], Partner: sorted[1], Consequent: sorted[2]})
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("loadsim: want %d tracers but only %d sibling groups of ≥ 3 leaves", n, len(out))
}

// reservedItems is the set of item names tracer triples occupy; background
// traffic must never sample them or the engineered supports drift.
func reservedItems(tracers []Tracer) map[string]bool {
	r := make(map[string]bool, 3*len(tracers))
	for _, t := range tracers {
		r[t.Antecedent], r[t.Partner], r[t.Consequent] = true, true, true
	}
	return r
}

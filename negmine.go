// Package negmine is a library for mining positive and — its reason for
// existing — strong negative association rules from transaction databases,
// reproducing "Mining for Strong Negative Associations in a Large Database
// of Customer Transactions" (Savasere, Omiecinski & Navathe, ICDE 1998).
//
// A negative association rule X =/=> Y states that customers who buy X are
// unlikely to buy Y. Naively, almost every itemset combination never
// co-occurs, so the paper constrains the search with an item taxonomy: only
// combinations whose expected support can be derived from discovered
// positive associations plus the taxonomy's uniformity assumption are
// considered, and only those whose actual support falls far below that
// expectation are reported.
//
// # Quick start
//
//	dict := negmine.NewDictionary()
//	db, _ := negmine.ReadBaskets(strings.NewReader(baskets), dict)
//	tax, _ := negmine.ParseTaxonomy(strings.NewReader(taxonomyEdges))
//	res, _ := negmine.MineNegative(db, tax, negmine.NegativeOptions{
//		MinSupport: 0.05,
//		MinRI:      0.5,
//	})
//	for _, r := range res.Rules {
//		fmt.Println(r.Format(tax.Name))
//	}
//
// The building blocks are exported too: classic Apriori (MineFrequent),
// taxonomy-aware mining with the Cumulate algorithm (MineGeneralized), the
// paper's synthetic retail data generator (GenerateData), and a binary
// transaction file format (SaveDB/LoadDB).
package negmine

import (
	"io"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Core data types, aliased from the implementation packages so values flow
// freely between the public API and the internals.
type (
	// Item identifies a product or taxonomy category.
	Item = item.Item
	// Itemset is a sorted, duplicate-free set of items.
	Itemset = item.Itemset
	// Dictionary maps item names to ids and back.
	Dictionary = item.Dictionary
	// CountedSet pairs an itemset with its absolute support count.
	CountedSet = item.CountedSet
	// SupportTable is MiningResult.Table: its large itemsets' support counts.
	SupportTable = item.Table

	// Transaction is one customer basket.
	Transaction = txdb.Transaction
	// DB is a scannable transaction database (in-memory or on-disk).
	DB = txdb.DB
	// MemDB is the in-memory database implementation.
	MemDB = txdb.MemDB
	// FileDB is the on-disk binary database implementation.
	FileDB = txdb.FileDB
	// DBStats summarizes a database.
	DBStats = txdb.Stats

	// Taxonomy is the immutable item hierarchy.
	Taxonomy = taxonomy.Taxonomy
	// TaxonomyBuilder constructs taxonomies incrementally.
	TaxonomyBuilder = taxonomy.Builder
	// TaxonomySpec parameterizes random taxonomy generation.
	TaxonomySpec = taxonomy.GenSpec

	// FrequentOptions configures classic Apriori mining.
	FrequentOptions = apriori.Options
	// MiningResult holds frequent (or generalized) itemsets by level.
	MiningResult = apriori.Result
	// Rule is a positive association rule.
	Rule = apriori.Rule

	// GeneralizedOptions configures taxonomy-aware mining.
	GeneralizedOptions = gen.Options

	// NegativeOptions configures negative rule mining.
	NegativeOptions = negative.Options
	// NegativeAlgorithm selects the Naive or Improved driver.
	NegativeAlgorithm = negative.Algorithm
	// NegativeResult is the outcome of negative mining.
	NegativeResult = negative.Result
	// NegativeItemset is a confirmed negative itemset.
	NegativeItemset = negative.Itemset
	// NegativeRule is a rule X =/=> Y.
	NegativeRule = negative.Rule
	// NegativeCandidate is a candidate negative itemset with its expected
	// support.
	NegativeCandidate = negative.Candidate

	// DataParams parameterizes the synthetic retail data generator.
	DataParams = datagen.Params

	// CountOptions tunes support counting (parallelism, hash tree width,
	// transaction transform, counting backend, memory budget).
	CountOptions = count.Options
	// CountBackend selects the support-counting engine.
	CountBackend = count.Backend
	// MemBudget is a process-wide memory ledger that bounds mining's
	// dominant allocations (bitmap rows, hash trees). Set CountOptions.Mem;
	// a tight budget narrows the bitmap engine's transaction window, and
	// only below the 64-transaction floor does a pass fail.
	MemBudget = govern.Budget
)

// Support-counting backends (set CountOptions.Backend; the default
// AutoBackend is the bitmap engine, except for a pass whose per-group
// transforms only the hash tree can honour).
const (
	AutoBackend     = count.BackendAuto
	HashTreeBackend = count.BackendHashTree
	BitmapBackend   = count.BackendBitmap
)

// ParseCountBackend converts a backend flag value ("auto", "hashtree",
// "bitmap") into a CountBackend.
func ParseCountBackend(s string) (CountBackend, error) { return count.ParseBackend(s) }

// NewMemBudget returns a memory budget capped at total bytes (≤ 0 =
// unlimited, but reservations are still tracked).
func NewMemBudget(total int64) *MemBudget { return govern.NewBudget(total) }

// DefaultMemBudget sizes a budget to the process's detected memory limit
// (GOMEMLIMIT, else the cgroup limit) with headroom for the runtime, or
// unlimited when no limit is discoverable.
func DefaultMemBudget() *MemBudget { return govern.DefaultBudget() }

// ParseByteSize converts a human byte-size flag value ("512MiB", "2g",
// "1048576") into bytes.
func ParseByteSize(s string) (int64, error) { return govern.ParseBytes(s) }

// Negative mining drivers.
const (
	// Improved is the paper's "Better" algorithm: n+1 database passes on
	// the hash tree, two scans and then rows on the bitmap engine.
	Improved = negative.Improved
	// Naive interleaves large-itemset and negative passes per level.
	Naive = negative.Naive
)

// NegativeFilter selects the negative-itemset acceptance test.
type NegativeFilter = negative.Filter

// Negative-itemset filters (the paper states the condition two ways).
const (
	// DeviationFilter is the §2 condition: expected − actual ≥ MinSup·MinRI.
	DeviationFilter = negative.DeviationFilter
	// AbsoluteFilter is Figure 3's literal condition: actual < MinSup·MinRI.
	AbsoluteFilter = negative.AbsoluteFilter
)

// NewItemset builds an itemset from arbitrary items (sorted, deduplicated).
func NewItemset(items ...Item) Itemset { return item.New(items...) }

// NewDictionary returns an empty item-name dictionary.
func NewDictionary() *Dictionary { return item.NewDictionary() }

// NewTaxonomyBuilder returns an empty taxonomy builder.
func NewTaxonomyBuilder() *TaxonomyBuilder { return taxonomy.NewBuilder() }

// ParseTaxonomy reads the "parent child" edge-per-line text format.
func ParseTaxonomy(r io.Reader) (*Taxonomy, error) { return taxonomy.Parse(r) }

// NewMemDB builds an in-memory database from transactions (validated).
func NewMemDB(txs []Transaction) (*MemDB, error) { return txdb.NewMemDB(txs) }

// FromItemsets builds an in-memory database assigning sequential TIDs.
func FromItemsets(sets ...[]Item) *MemDB { return txdb.FromItemsets(sets...) }

// ReadBaskets parses the one-basket-per-line named-item text format.
func ReadBaskets(r io.Reader, dict *Dictionary) (*MemDB, error) {
	return txdb.ReadBaskets(r, dict)
}

// ReadBasketsInts parses one-basket-per-line integer-id baskets.
func ReadBasketsInts(r io.Reader) (*MemDB, error) { return txdb.ReadBasketsInts(r) }

// SaveDB writes db to path in the library's binary format.
func SaveDB(path string, db DB) error { return txdb.WriteFile(path, db) }

// OpenDB opens a binary transaction file for streaming scans (the file is
// not loaded into memory; every mining pass streams it).
func OpenDB(path string) (*FileDB, error) { return txdb.OpenFile(path) }

// LoadDB reads a binary transaction file fully into memory.
func LoadDB(path string) (*MemDB, error) { return txdb.Load(path) }

// CollectStats summarizes db in one scan.
func CollectStats(db DB) (DBStats, error) { return txdb.Collect(db) }

// MineFrequent runs classic Apriori (no taxonomy).
func MineFrequent(db DB, opt FrequentOptions) (*MiningResult, error) {
	return apriori.Mine(db, opt)
}

// PruneInteresting keeps only the R-interesting generalized rules — those
// not already predicted (within factor r) by a close ancestor rule under
// the taxonomy's uniformity assumption (Srikant–Agrawal VLDB '95 §3).
func PruneInteresting(rules []Rule, res *MiningResult, tax *Taxonomy, r float64) ([]Rule, error) {
	return gen.PruneInteresting(rules, res, tax, r)
}

// GenerateRules derives positive association rules from a mining result.
func GenerateRules(res *MiningResult, minConfidence float64) ([]Rule, error) {
	return apriori.GenRules(res, minConfidence)
}

// MineGeneralized finds taxonomy-aware large itemsets with Cumulate (stage 1
// of negative mining).
func MineGeneralized(db DB, tax *Taxonomy, opt GeneralizedOptions) (*MiningResult, error) {
	return gen.Mine(db, tax, opt)
}

// MineNegative runs the paper's full pipeline: generalized large itemsets,
// taxonomy-guided negative candidates, and negative rule generation.
func MineNegative(db DB, tax *Taxonomy, opt NegativeOptions) (*NegativeResult, error) {
	return negative.Mine(db, tax, opt)
}

// GenerateData synthesizes a retail dataset (taxonomy + transactions) with
// the paper's §3.1 generator. See ShortDataParams and TallDataParams for
// the paper's configurations.
func GenerateData(p DataParams) (*Taxonomy, *MemDB, error) { return datagen.Generate(p) }

// ShortDataParams returns the paper's "Short" (fanout 9) dataset parameters.
func ShortDataParams() DataParams { return datagen.Short() }

// TallDataParams returns the paper's "Tall" (fanout 3) dataset parameters.
func TallDataParams() DataParams { return datagen.Tall() }

// ScaleDataParams shrinks dataset parameters by an integer factor for
// laptop-scale runs, preserving proportions.
func ScaleDataParams(p DataParams, factor int) DataParams { return datagen.Scaled(p, factor) }

// EstimateNegativeCandidates evaluates the paper's §2.1.2 closed-form
// candidate-count estimate for itemset size k and taxonomy fanout f.
func EstimateNegativeCandidates(k int, f float64) float64 {
	return negative.EstimateCandidates(k, f)
}

// RuleStore indexes one run's negative rules by name for lookups and
// run-to-run comparison.
type RuleStore = rulestore.Store

// RuleDiff is the comparison of two runs' rule sets.
type RuleDiff = rulestore.Diff

// NewRuleStore indexes a mining result's rules by item names.
func NewRuleStore(res *NegativeResult, name func(Item) string) *RuleStore {
	return rulestore.New(res, name)
}

// LoadRuleStore reads a store from a report previously written with
// WriteNegativeJSON.
func LoadRuleStore(r io.Reader) (*RuleStore, error) { return rulestore.Load(r) }

// CompareRules diffs two rule stores (appeared / disappeared / RI drifted
// beyond riTolerance).
func CompareRules(old, new *RuleStore, riTolerance float64) *RuleDiff {
	return rulestore.Compare(old, new, riTolerance)
}

// NegativeReport is the exportable, name-resolved form of a negative mining
// run — the JSON document WriteNegativeJSON emits and cmd/negmined serves.
type NegativeReport = report.NegativeReport

// BuildNegativeReport converts a mining result into its exportable form
// without serializing it — the in-process path from MineNegative to a
// serving snapshot.
func BuildNegativeReport(res *NegativeResult, minSup, minRI float64, name func(Item) string) *NegativeReport {
	return report.BuildNegative(res, minSup, minRI, name)
}

// ReadNegativeReport parses a report previously written by
// WriteNegativeJSON.
func ReadNegativeReport(r io.Reader) (*NegativeReport, error) {
	return report.ReadNegativeJSON(r)
}

// RuleStoreFromReport indexes an already-parsed report (LoadRuleStore
// without the JSON round-trip).
func RuleStoreFromReport(rep *NegativeReport) *RuleStore {
	return rulestore.FromReport(rep)
}

// MineNegativeReport runs the full negative pipeline and returns the
// exportable report form in one call — what cmd/negmined does on /reload
// before it builds a fresh snapshot from the report and swaps it in.
func MineNegativeReport(db DB, tax *Taxonomy, opt NegativeOptions) (*NegativeReport, error) {
	res, err := MineNegative(db, tax, opt)
	if err != nil {
		return nil, err
	}
	return BuildNegativeReport(res, opt.MinSupport, opt.MinRI, tax.Name), nil
}

// ExplainRule renders a step-by-step derivation of a negative rule — the
// source large itemset, the child/sibling swap, expected vs actual support
// and the RI computation — for auditability.
func ExplainRule(r NegativeRule, res *NegativeResult, name func(Item) string) string {
	return negative.Explain(r, res.Large.Table, name)
}

// WriteNegativeJSON exports a negative mining run (rules + negative
// itemsets + thresholds) as indented JSON.
func WriteNegativeJSON(w io.Writer, res *NegativeResult, minSup, minRI float64, name func(Item) string) error {
	return report.WriteNegativeJSON(w, res, minSup, minRI, name)
}

// WriteNegativeCSV exports the negative rules as CSV.
func WriteNegativeCSV(w io.Writer, res *NegativeResult, name func(Item) string) error {
	return report.WriteNegativeCSV(w, res, name)
}

// WritePositiveJSON exports positive rules as a JSON array.
func WritePositiveJSON(w io.Writer, rules []Rule, name func(Item) string) error {
	return report.WritePositiveJSON(w, rules, name)
}

// WritePositiveCSV exports positive rules as CSV.
func WritePositiveCSV(w io.Writer, rules []Rule, name func(Item) string) error {
	return report.WritePositiveCSV(w, rules, name)
}

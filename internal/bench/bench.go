// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§3): dataset construction for the
// "Short" and "Tall" configurations, timing sweeps over minimum support for
// the Naive and Improved algorithms (Figures 5 and 6), the
// candidate-count-vs-fanout experiment (Figure 7), and the frozen-yogurt /
// bottled-water worked example (Tables 1 and 2).
//
// The cmd/experiments binary and the repository-level benchmarks are thin
// wrappers around this package.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/negative"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Dataset bundles a generated taxonomy and database with its parameters.
type Dataset struct {
	Name   string
	Params datagen.Params
	Tax    *taxonomy.Taxonomy
	DB     txdb.DB
}

// NewDataset generates a dataset from p.
func NewDataset(name string, p datagen.Params) (*Dataset, error) {
	tax, db, err := datagen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", name, err)
	}
	return &Dataset{Name: name, Params: p, Tax: tax, DB: db}, nil
}

// OnDisk writes the dataset to path in the binary format and returns a copy
// whose DB streams from disk on every pass — the paper's setting (a 32 MB
// SPARCstation could not hold 50,000 transactions' working set alongside
// the candidates, so every pass was real I/O). Disk-backed runs make the
// Naive-vs-Improved pass gap visible in wall-clock time.
func (ds *Dataset) OnDisk(path string) (*Dataset, error) {
	if err := txdb.WriteFile(path, ds.DB); err != nil {
		return nil, err
	}
	f, err := txdb.OpenFile(path)
	if err != nil {
		return nil, err
	}
	out := *ds
	out.Name = ds.Name + "/disk"
	out.DB = f
	return &out, nil
}

// ScaleTx divides only the transaction count by factor, keeping the item
// universe, cluster structure and taxonomy at full paper size. Unlike
// datagen.Scaled this preserves the relative supports and hence the shape
// of every curve; it is the scaling the experiment harness uses.
func ScaleTx(p datagen.Params, factor int) datagen.Params {
	if factor > 1 {
		p.NumTransactions /= factor
		if p.NumTransactions < 100 {
			p.NumTransactions = 100
		}
	}
	return p
}

// Short builds the paper's "Short" dataset (fanout 9) with transactions
// divided by scale (1 = the paper's full 50,000).
func Short(scale int, seed int64) (*Dataset, error) {
	p := ScaleTx(datagen.Short(), scale)
	p.Seed = seed
	return NewDataset("Short", p)
}

// Tall builds the paper's "Tall" dataset (fanout 3).
func Tall(scale int, seed int64) (*Dataset, error) {
	p := ScaleTx(datagen.Tall(), scale)
	p.Seed = seed
	return NewDataset("Tall", p)
}

// Throttled returns a copy of the dataset whose scans charge perTx of
// simulated I/O time per transaction — the paper's disk-bound 1995 regime,
// where the Naive-vs-Improved pass-count difference dominates wall time.
func (ds *Dataset) Throttled(perTx time.Duration) *Dataset {
	out := *ds
	out.Name = fmt.Sprintf("%s/slowio=%v", ds.Name, perTx)
	out.DB = txdb.Throttle(ds.DB, perTx)
	return &out
}

// TimingRow is one support level of Figures 5/6.
type TimingRow struct {
	MinSupPct     float64 // minimum support, percent
	NaiveSec      float64 // negative-stage seconds, Naive algorithm
	BetterSec     float64 // negative-stage seconds, Improved algorithm
	LargeItemsets int     // generalized large itemsets found (stage 1)
	Candidates    int     // negative candidates generated (Improved)
	Negatives     int     // negative itemsets confirmed
	Rules         int     // negative rules emitted
}

// TimingConfig parameterizes a Figure 5/6 sweep.
type TimingConfig struct {
	MinSupsPct []float64     // support levels, percent (paper: 0.5–2)
	MinRI      float64       // paper: 0.5
	MaxK       int           // optional stage-1 level cap (0 = none)
	Parallel   int           // workers: scans, counting, candidate generation
	Backend    count.Backend // counting backend (auto picks per-database)
}

// RunTimings executes the Figure 5/6 experiment on ds: for each support
// level it runs both the Naive and the Improved algorithm and reports the
// negative-stage time (the paper excludes stage-1 large-itemset time).
func RunTimings(ds *Dataset, cfg TimingConfig) ([]TimingRow, error) {
	rows := make([]TimingRow, 0, len(cfg.MinSupsPct))
	for _, pct := range cfg.MinSupsPct {
		row := TimingRow{MinSupPct: pct}
		for _, alg := range []negative.Algorithm{negative.Naive, negative.Improved} {
			opt := negative.Options{
				MinSupport: pct / 100,
				MinRI:      cfg.MinRI,
				Algorithm:  alg,
				Gen:        gen.Options{MaxK: cfg.MaxK},
			}
			opt.Count.Parallelism = cfg.Parallel
			opt.Gen.Count.Parallelism = cfg.Parallel
			opt.Count.Backend = cfg.Backend
			opt.Gen.Count.Backend = cfg.Backend
			res, err := negative.Mine(ds.DB, ds.Tax, opt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s minsup %.2f%% %v: %w", ds.Name, pct, alg, err)
			}
			sec := res.Timing.Negative.Seconds()
			if alg == negative.Naive {
				row.NaiveSec = sec
			} else {
				row.BetterSec = sec
				row.LargeItemsets = len(res.Large.Large())
				row.Candidates = res.TotalCandidates()
				row.Negatives = len(res.Negatives)
				row.Rules = len(res.Rules)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTimings renders a Figure 5/6 table.
func PrintTimings(w io.Writer, ds *Dataset, rows []TimingRow) {
	fmt.Fprintf(w, "Execution times, %q dataset (|D|=%d, N=%d items, fanout=%v)\n",
		ds.Name, ds.DB.Count(), ds.Params.NumItems, ds.Params.Fanout)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "minsup%\tnaive(s)\tbetter(s)\tspeedup\tlarge\tcands\tnegsets\trules")
	for _, r := range rows {
		speedup := 0.0
		if r.BetterSec > 0 {
			speedup = r.NaiveSec / r.BetterSec
		}
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.2fx\t%d\t%d\t%d\t%d\n",
			r.MinSupPct, r.NaiveSec, r.BetterSec, speedup,
			r.LargeItemsets, r.Candidates, r.Negatives, r.Rules)
	}
	tw.Flush()
}

// CandidateCounts is the Figure 7 measurement for one dataset: generated
// negative candidates per itemset size, normalized by the number of large
// itemsets of that size.
type CandidateCounts struct {
	Dataset    string
	Fanout     float64
	BySize     map[int]int     // raw candidate counts per size
	LargeBySz  map[int]int     // large itemsets per size
	Normalized map[int]float64 // BySize / LargeBySz
}

// RunCandidates executes the Figure 7 experiment on ds at one support
// level.
func RunCandidates(ds *Dataset, minSupPct, minRI float64, maxK, parallel int) (*CandidateCounts, error) {
	opt := negative.Options{
		MinSupport: minSupPct / 100,
		MinRI:      minRI,
		Algorithm:  negative.Improved,
		Gen:        gen.Options{MaxK: maxK},
	}
	opt.Count.Parallelism = parallel
	opt.Gen.Count.Parallelism = parallel
	res, err := negative.Mine(ds.DB, ds.Tax, opt)
	if err != nil {
		return nil, err
	}
	out := &CandidateCounts{
		Dataset:    ds.Name,
		Fanout:     ds.Params.Fanout,
		BySize:     res.CandidatesBySize,
		LargeBySz:  map[int]int{},
		Normalized: map[int]float64{},
	}
	for k, lvl := range res.Large.Levels {
		out.LargeBySz[k+1] = len(lvl)
	}
	for size, c := range res.CandidatesBySize {
		if l := out.LargeBySz[size]; l > 0 {
			out.Normalized[size] = float64(c) / float64(l)
		}
	}
	return out, nil
}

// PrintCandidates renders the Figure 7 table for a set of measurements.
func PrintCandidates(w io.Writer, counts []*CandidateCounts) {
	fmt.Fprintln(w, "Negative candidates per itemset size, normalized by large itemsets of that size")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "size")
	for _, c := range counts {
		fmt.Fprintf(tw, "\t%s(F=%v) raw\tnorm", c.Dataset, c.Fanout)
	}
	fmt.Fprintln(tw)
	sizes := map[int]struct{}{}
	for _, c := range counts {
		for s := range c.BySize {
			sizes[s] = struct{}{}
		}
	}
	ordered := make([]int, 0, len(sizes))
	for s := range sizes {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)
	for _, s := range ordered {
		fmt.Fprintf(tw, "%d", s)
		for _, c := range counts {
			fmt.Fprintf(tw, "\t%d\t%.2f", c.BySize[s], c.Normalized[s])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Command negmine mines association rules — positive and negative — from a
// transaction file and an item taxonomy.
//
// Usage:
//
//	negmine -data baskets.txt -tax taxonomy.txt -minsup 0.02 -minri 0.5
//
// Flags:
//
//	-data file     transactions: basket text (one basket per line) or the
//	               library's binary format (.nmtx)
//	-tax file      taxonomy: "parent child" edges, one per line
//	-minsup f      minimum relative support (default 0.02)
//	-minri f       minimum rule interest for negative rules (default 0.5)
//	-minconf f     minimum confidence for positive rules (default 0.6)
//	-alg name      negative algorithm: better (default) or naive
//	-positive      also mine and print positive generalized rules
//	-negatives     print confirmed negative itemsets as well as rules
//	-parallel n    workers for scans, counting and candidate generation (default 1)
//	-backend name  counting backend: auto (default), hashtree or bitmap
//	-maxk n        cap large-itemset size (0 = unlimited)
//	-format name   text (default), json or csv; `-format json` writes the
//	               report document that cmd/negmined serves online
//	               (negmined -report rules.json) and that -diff reads back
//	-o file        write results to this file atomically (temp + fsync +
//	               rename) instead of stdout; a crash mid-write never
//	               truncates an existing report
//	-snap file     also write the rule set as a binary .nsnap snapshot,
//	               the mmap-loadable serving format (negmined boots from it
//	               instantly; inspect with `nmtx snap info`)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"negmine"
	"negmine/internal/atomicio"
	"negmine/internal/report"
	"negmine/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "negmine:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("negmine", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dataPath  = fs.String("data", "", "transaction file (basket text or .nmtx binary)")
		taxPath   = fs.String("tax", "", "taxonomy file (parent child edges)")
		minSup    = fs.Float64("minsup", 0.02, "minimum relative support")
		minRI     = fs.Float64("minri", 0.5, "minimum rule interest")
		minConf   = fs.Float64("minconf", 0.6, "minimum confidence for positive rules")
		algName   = fs.String("alg", "better", "negative algorithm: better or naive")
		positive  = fs.Bool("positive", false, "also mine positive generalized rules")
		negatives = fs.Bool("negatives", false, "print negative itemsets too")
		parallel  = fs.Int("parallel", 1, "workers for scans, counting and candidate generation")
		backend   = fs.String("backend", "auto", "counting backend: auto, hashtree or bitmap")
		memBudget = fs.String("mem-budget", "auto", "mining memory budget, e.g. 2GiB (auto = 80% of GOMEMLIMIT/cgroup limit, off = unlimited)")
		maxK      = fs.Int("maxk", 0, "cap large-itemset size (0 = unlimited)")
		format    = fs.String("format", "text", "output format: text, json or csv (json is the report negmined -report serves and -diff reads)")
		subsPath  = fs.String("subs", "", "substitute-group file: one group of item names per line")
		interest  = fs.Float64("interesting", 0, "prune positive rules to the R-interesting ones (0 = off; try 1.1)")
		filter    = fs.String("filter", "deviation", "negative-itemset filter: deviation (§2) or absolute (Figure 3)")
		explain   = fs.Bool("explain", false, "print the full derivation of every negative rule")
		diffPath  = fs.String("diff", "", "previous run's JSON report: print appeared/disappeared/changed rules")
		outPath   = fs.String("o", "", "write results to this file instead of stdout (atomic: temp file + fsync + rename, so a crash never truncates an existing report)")
		snapPath  = fs.String("snap", "", "also write the mined rule set as a binary .nsnap snapshot (mmap-loadable by negmined; atomic write)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *taxPath == "" {
		fs.Usage()
		return fmt.Errorf("-data and -tax are required")
	}

	taxFile, err := os.Open(*taxPath)
	if err != nil {
		return err
	}
	tax, err := negmine.ParseTaxonomy(taxFile)
	taxFile.Close()
	if err != nil {
		return err
	}

	db, err := loadData(*dataPath, tax.Dictionary())
	if err != nil {
		return err
	}
	switch strings.ToLower(*format) {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want text, json or csv)", *format)
	}
	if strings.ToLower(*format) == "text" {
		stats, err := negmine.CollectStats(db)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %d transactions (avg length %.1f), taxonomy: %d nodes, %d leaves, height %d\n",
			stats.Transactions, stats.AvgLen, tax.Size(), tax.Leaves().Len(), tax.Height())
	}

	negAlg := negmine.Improved
	switch strings.ToLower(*algName) {
	case "better", "improved":
	case "naive":
		negAlg = negmine.Naive
	default:
		return fmt.Errorf("unknown -alg %q (want better or naive)", *algName)
	}

	opt := negmine.NegativeOptions{
		MinSupport: *minSup,
		MinRI:      *minRI,
		Algorithm:  negAlg,
		Gen:        negmine.GeneralizedOptions{MaxK: *maxK},
	}
	opt.Count.Parallelism = *parallel
	opt.Gen.Count.Parallelism = *parallel
	countBackend, err := negmine.ParseCountBackend(*backend)
	if err != nil {
		return err
	}
	opt.Count.Backend = countBackend
	opt.Gen.Count.Backend = countBackend
	switch strings.ToLower(*memBudget) {
	case "auto":
		mem := negmine.DefaultMemBudget()
		opt.Count.Mem = mem
		opt.Gen.Count.Mem = mem
	case "off", "none", "0":
	default:
		n, err := negmine.ParseByteSize(*memBudget)
		if err != nil {
			return fmt.Errorf("-mem-budget: %w", err)
		}
		if n > 0 {
			mem := negmine.NewMemBudget(n)
			opt.Count.Mem = mem
			opt.Gen.Count.Mem = mem
		}
	}
	switch strings.ToLower(*filter) {
	case "deviation":
	case "absolute":
		opt.Filter = negmine.AbsoluteFilter
	default:
		return fmt.Errorf("unknown -filter %q (want deviation or absolute)", *filter)
	}
	if *subsPath != "" {
		groups, err := loadSubstitutes(*subsPath, tax.Dictionary())
		if err != nil {
			return err
		}
		opt.Substitutes = groups
	}

	res, err := negmine.MineNegative(db, tax, opt)
	if err != nil {
		return err
	}

	// emit renders the whole result document to one writer, so the same
	// code path serves stdout and the crash-safe -o file.
	emit := func(w io.Writer) error {
		switch strings.ToLower(*format) {
		case "json":
			return report.WriteNegativeJSON(w, res, *minSup, *minRI, tax.Name)
		case "csv":
			return report.WriteNegativeCSV(w, res, tax.Name)
		}

		fmt.Fprintf(w, "\nstage 1 (Cumulate): %d generalized large itemsets in %v (indexing %v, of which pass 1 %v)\n",
			len(res.Large.Large()), res.Timing.Stage1.Round(timeUnit), res.Timing.Index.Round(timeUnit), res.Timing.Pass1.Round(timeUnit))
		fmt.Fprintf(w, "stage 2+3 (%v): %d candidates, %d negative itemsets, %d rules in %v\n",
			negAlg, res.TotalCandidates(), len(res.Negatives), len(res.Rules),
			res.Timing.Negative.Round(timeUnit))
		fmt.Fprintf(w, "  (restrict %v, candidate generation %v, counting %v, rule generation %v)\n",
			res.Timing.Restrict.Round(timeUnit), res.Timing.CandGen.Round(timeUnit),
			res.Timing.Count.Round(timeUnit), res.Timing.RuleGen.Round(timeUnit))
		// A visit is a keep/replace decision of a source's walk or a member
		// placed by a Case-3 class enumeration; an emission is a completed set,
		// probed once, and recorded unless another path to it beats it
		// (negative.WalkStats).
		wk := res.Walk
		fmt.Fprintf(w, "  (walk: %d sources, %d visited, %d floor cuts, %d emitted = %d already large + %d beaten by another path + %d recorded; %d emitted by Case 3)\n",
			wk.Sources, wk.Visited, wk.FloorCuts, wk.Emitted, wk.AlreadyLarge, wk.Duplicates, wk.Recorded, wk.Case3)

		if *negatives {
			fmt.Fprintln(w, "\nnegative itemsets (expected vs actual support):")
			for _, n := range res.Negatives {
				fmt.Fprintf(w, "  %s  exp=%.4f act=%.4f\n", n.Set.Format(tax.Name), n.Expected, n.Actual())
			}
		}

		fmt.Fprintln(w, "\nnegative rules:")
		if len(res.Rules) == 0 {
			fmt.Fprintln(w, "  (none at these thresholds)")
		}
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  %s\n", r.Format(tax.Name))
		}
		if *explain && len(res.Rules) > 0 {
			fmt.Fprintln(w, "\nderivations:")
			for _, r := range res.Rules {
				fmt.Fprintln(w, negmine.ExplainRule(r, res, tax.Name))
			}
		}

		if *diffPath != "" {
			f, err := os.Open(*diffPath)
			if err != nil {
				return err
			}
			old, err := negmine.LoadRuleStore(f)
			f.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nvs previous run (%s):\n", *diffPath)
			negmine.CompareRules(old, negmine.NewRuleStore(res, tax.Name), 0.05).Print(w)
		}

		if *positive {
			rules, err := negmine.GenerateRules(res.Large, *minConf)
			if err != nil {
				return err
			}
			header := fmt.Sprintf("\npositive generalized rules (minconf %.2f):", *minConf)
			if *interest > 0 {
				rules, err = negmine.PruneInteresting(rules, res.Large, tax, *interest)
				if err != nil {
					return err
				}
				header = fmt.Sprintf("\npositive generalized rules (minconf %.2f, R-interesting at %.2f):", *minConf, *interest)
			}
			sort.Slice(rules, func(i, j int) bool { return rules[i].Confidence > rules[j].Confidence })
			fmt.Fprintln(w, header)
			for _, r := range rules {
				fmt.Fprintf(w, "  %s\n", r.Format(tax.Name))
			}
		}
		return nil
	}

	if *snapPath != "" {
		// The serving-format twin of -o: the same rule set as a checksummed
		// binary snapshot that negmined boots from via mmap (generation 1,
		// the convention for standalone files outside an artifact store).
		meta := serve.Meta{Source: "mined " + *dataPath, MinSupport: *minSup, MinRI: *minRI}
		snap := serve.BuildSnapshot(negmine.NewRuleStore(res, tax.Name), tax, meta)
		if err := serve.WriteSnapshotFile(*snapPath, snap, 1); err != nil {
			return fmt.Errorf("-snap: %w", err)
		}
		if *outPath != "" || strings.ToLower(*format) == "text" {
			// Suppressed when a machine-readable report streams to stdout.
			fmt.Fprintf(out, "wrote snapshot %s (%d rules)\n", *snapPath, snap.Len())
		}
	}

	if *outPath != "" {
		// Crash-safe: the document lands in a temp file that replaces
		// *outPath only after a full, fsynced write. A run killed mid-write
		// leaves any previous report untouched.
		if err := atomicio.WriteFile(*outPath, emit); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
		return nil
	}
	return emit(out)
}

// loadSubstitutes parses a substitute-group file: one group per line, item
// names whitespace-separated, '#' comments. Names must already exist in the
// taxonomy's dictionary.
func loadSubstitutes(path string, dict *negmine.Dictionary) ([]negmine.Itemset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var groups []negmine.Itemset
	for lineNo, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		items := make([]negmine.Item, len(fields))
		for i, f := range fields {
			id, ok := dict.Lookup(f)
			if !ok {
				return nil, fmt.Errorf("substitutes %s:%d: unknown item %q", path, lineNo+1, f)
			}
			items[i] = id
		}
		groups = append(groups, negmine.NewItemset(items...))
	}
	return groups, nil
}

const timeUnit = 1000 * 1000 // microseconds

func loadData(path string, dict *negmine.Dictionary) (negmine.DB, error) {
	if strings.HasSuffix(path, ".nmtx") {
		return negmine.OpenDB(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return negmine.ReadBaskets(f, dict)
}

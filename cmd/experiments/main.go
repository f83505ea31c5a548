// Command experiments regenerates the paper's evaluation tables and
// figures:
//
//	experiments -table 12           # Tables 1 & 2: the worked example
//	experiments -fig 5 -scale 10    # Figure 5: Naive vs Better, "Short"
//	experiments -fig 6 -scale 10    # Figure 6: Naive vs Better, "Tall"
//	experiments -fig 7 -scale 10    # Figure 7: candidates vs fanout
//	experiments -all -scale 10      # everything
//
// -scale divides the transaction count (50,000 at scale 1) while keeping
// the paper's 8,000-item universe, so relative supports — and hence every
// curve's shape — are preserved. Absolute times shrink accordingly. -disk
// and -slowio model the paper's I/O-bound setting and count with its hash
// tree unless -backend names another engine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"negmine/internal/bench"
	"negmine/internal/count"
	"negmine/internal/negative"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "figures to regenerate: comma-separated of 5,6,7")
		table    = fs.String("table", "", "tables to regenerate: 1, 2 or 12")
		all      = fs.Bool("all", false, "run every experiment")
		scale    = fs.Int("scale", 10, "transaction-count divisor (1 = the paper's 50,000)")
		seed     = fs.Int64("seed", 1, "dataset seed")
		minRI    = fs.Float64("minri", 0.5, "minimum rule interest (paper: 0.5)")
		minsups  = fs.String("minsups", "2,1.5,1,0.75,0.5", "support levels in percent for figures 5/6")
		maxK     = fs.Int("maxk", 0, "stage-1 level cap (0 = unlimited)")
		parallel = fs.Int("parallel", 1, "workers for scans, counting and candidate generation")
		backend  = fs.String("backend", "auto", "counting backend: auto, hashtree or bitmap")
		disk     = fs.Bool("disk", false, "stream transactions from disk on every pass (the paper's setting)")
		slowIO   = fs.Int("slowio", 0, "simulated scan cost in µs per transaction (0 = off); models the paper's 1995 disk-bound regime")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	figs := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		if f = strings.TrimSpace(f); f != "" {
			figs[f] = true
		}
	}
	tables := map[string]bool{}
	switch *table {
	case "":
	case "12":
		tables["1"], tables["2"] = true, true
	default:
		for _, t := range strings.Split(*table, ",") {
			tables[strings.TrimSpace(t)] = true
		}
	}
	if *all {
		figs["5"], figs["6"], figs["7"] = true, true, true
		tables["1"], tables["2"] = true, true
	}
	if len(figs) == 0 && len(tables) == 0 {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -fig, -table or -all")
	}

	sups, err := parseFloats(*minsups)
	if err != nil {
		return err
	}
	countBackend, err := count.ParseBackend(*backend)
	if err != nil {
		return err
	}
	if (*disk || *slowIO > 0) && countBackend == count.BackendAuto {
		// The I/O-bound runs reproduce the paper's engine, whose cost is the
		// per-transaction probing the simulated device is charged beside.
		countBackend = count.BackendHashTree
		fmt.Fprintf(out, "counting backend: %v (the paper's engine, pinned for -disk/-slowio; -backend overrides)\n", countBackend)
	}
	cfg := bench.TimingConfig{
		MinSupsPct: sups,
		MinRI:      *minRI,
		MaxK:       *maxK,
		Parallel:   *parallel,
		Backend:    countBackend,
	}

	if tables["1"] || tables["2"] {
		fmt.Fprintln(out, "=== Tables 1 & 2 — worked example (Figure 2 taxonomy) ===")
		rep, err := bench.RunPaperExample()
		if err != nil {
			return err
		}
		rep.Print(out)
		fmt.Fprintln(out)
	}

	var short, tall *bench.Dataset
	need := func(name string) (*bench.Dataset, error) {
		cached := &short
		build := bench.Short
		if name == "Tall" {
			cached, build = &tall, bench.Tall
		}
		if *cached != nil {
			return *cached, nil
		}
		fmt.Fprintf(out, "generating %q dataset (scale %d)...\n", name, *scale)
		ds, err := build(*scale, *seed)
		if err != nil {
			return nil, err
		}
		if *disk {
			dir, err := os.MkdirTemp("", "negmine-exp")
			if err != nil {
				return nil, err
			}
			ds, err = ds.OnDisk(dir + "/" + name + ".nmtx")
			if err != nil {
				return nil, err
			}
		}
		if *slowIO > 0 {
			ds = ds.Throttled(time.Duration(*slowIO) * time.Microsecond)
		}
		*cached = ds
		return ds, nil
	}

	if figs["5"] {
		ds, err := need("Short")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== Figure 5 — execution times, \"Short\" dataset ===")
		rows, err := bench.RunTimings(ds, cfg)
		if err != nil {
			return err
		}
		bench.PrintTimings(out, ds, rows)
		fmt.Fprintln(out)
	}
	if figs["6"] {
		ds, err := need("Tall")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== Figure 6 — execution times, \"Tall\" dataset ===")
		rows, err := bench.RunTimings(ds, cfg)
		if err != nil {
			return err
		}
		bench.PrintTimings(out, ds, rows)
		fmt.Fprintln(out)
	}
	if figs["7"] {
		s, err := need("Short")
		if err != nil {
			return err
		}
		tl, err := need("Tall")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== Figure 7 — negative candidates vs taxonomy fanout ===")
		pct := 1.5
		if len(sups) > 0 {
			pct = sups[len(sups)/2]
		}
		cs, err := bench.RunCandidates(s, pct, *minRI, *maxK, *parallel)
		if err != nil {
			return err
		}
		ct, err := bench.RunCandidates(tl, pct, *minRI, *maxK, *parallel)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "(at minsup %.2f%%, MinRI %.2f)\n", pct, *minRI)
		bench.PrintCandidates(out, []*bench.CandidateCounts{cs, ct})
		fmt.Fprintf(out, "\nanalytic estimate (§2.1.2), candidates from one large k-itemset:\n")
		for k := 2; k <= 4; k++ {
			fmt.Fprintf(out, "  k=%d: fanout 9 → %.0f, fanout 3 → %.0f\n",
				k, negative.EstimateCandidates(k, 9), negative.EstimateCandidates(k, 3))
		}
		fmt.Fprintln(out)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad support level %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

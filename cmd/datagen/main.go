// Command datagen generates the paper's synthetic retail datasets (§3.1):
// a taxonomy file and a transaction file, either in the basket text format
// or the library's binary format.
//
// Usage:
//
//	datagen -preset short -scale 10 -out data.nmtx -taxout tax.txt
//	datagen -items 1000 -txs 20000 -fanout 5 -roots 20 -out data.txt
//	datagen -drift -zipf 1.0 -drift-phases 4 -out drift.nmtx
//
// With -scale N only the transaction count is divided by N; the item
// universe keeps the paper's proportions, preserving relative supports.
//
// With -drift the stationary cluster model is replaced by a drifting
// zipfian stream: basket items are drawn by popularity rank with skew
// -zipf, and the rank→item assignment rotates through -drift-phases
// phases (every -drift-every transactions) — the non-stationary regime
// the incremental miner and freshness benches exercise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"negmine"
	"negmine/internal/cli"
	"negmine/internal/datagen"
	"negmine/internal/txdb"
)

func main() { cli.Main("datagen", run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		preset  = fs.String("preset", "short", "parameter preset: short or tall")
		scale   = fs.Int("scale", 1, "divide the transaction count by this factor")
		seed    = fs.Int64("seed", 1, "random seed")
		outPath = fs.String("out", "data.nmtx", "transaction output (.nmtx binary, otherwise basket text)")
		taxOut  = fs.String("taxout", "taxonomy.txt", "taxonomy output file")
		txs     = fs.Int("txs", 0, "override: number of transactions")
		items   = fs.Int("items", 0, "override: number of leaf items")
		roots   = fs.Int("roots", 0, "override: taxonomy roots")
		fanout  = fs.Float64("fanout", 0, "override: taxonomy fanout")
		txLen   = fs.Float64("txlen", 0, "override: average transaction length")
		cluster = fs.Int("clusters", 0, "override: number of potentially large clusters")

		drift      = fs.Bool("drift", false, "drifting zipfian stream instead of the stationary cluster model")
		zipf       = fs.Float64("zipf", 1.0, "with -drift: zipf skew exponent over items (0 = uniform)")
		driftPh    = fs.Int("drift-phases", 4, "with -drift: popularity phases before the rotation repeats")
		driftEvery = fs.Int("drift-every", 0, "with -drift: transactions per phase (0 = txs/phases)")
		driftShift = fs.Int("drift-shift", 0, "with -drift: rank rotation per phase (0 = items/phases)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p negmine.DataParams
	switch strings.ToLower(*preset) {
	case "short":
		p = negmine.ShortDataParams()
	case "tall":
		p = negmine.TallDataParams()
	default:
		return fmt.Errorf("unknown -preset %q (want short or tall)", *preset)
	}
	if *scale > 1 {
		p.NumTransactions /= *scale
		if p.NumTransactions < 100 {
			p.NumTransactions = 100
		}
	}
	p.Seed = *seed
	if *txs > 0 {
		p.NumTransactions = *txs
	}
	if *items > 0 {
		p.NumItems = *items
	}
	if *roots > 0 {
		p.Roots = *roots
	}
	if *fanout > 0 {
		p.Fanout = *fanout
	}
	if *txLen > 0 {
		p.AvgTxLen = *txLen
	}
	if *cluster > 0 {
		p.NumClusters = *cluster
	}

	var (
		tax *negmine.Taxonomy
		db  *negmine.MemDB
		err error
	)
	if *drift {
		tax, db, err = datagen.GenerateDrift(p, datagen.DriftParams{
			Exponent:       *zipf,
			Phases:         *driftPh,
			EventsPerPhase: *driftEvery,
			Shift:          *driftShift,
		})
	} else {
		tax, db, err = negmine.GenerateData(p)
	}
	if err != nil {
		return err
	}

	tf, err := os.Create(*taxOut)
	if err != nil {
		return err
	}
	if err := tax.Write(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	if txdb.IsBinaryPath(*outPath) {
		err = negmine.SaveDB(*outPath, db)
	} else {
		var f *os.File
		f, err = os.Create(*outPath)
		if err == nil {
			err = writeBaskets(f, db, tax)
		}
	}
	if err != nil {
		return err
	}

	stats, err := negmine.CollectStats(db)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d transactions (avg length %.2f) to %s\n", stats.Transactions, stats.AvgLen, *outPath)
	fmt.Fprintf(out, "wrote taxonomy (%d nodes, %d leaves, height %d, mean fanout %.2f) to %s\n",
		tax.Size(), tax.Leaves().Len(), tax.Height(), tax.MeanFanout(), *taxOut)
	return nil
}

func writeBaskets(f *os.File, db negmine.DB, tax *negmine.Taxonomy) error {
	err := db.Scan(func(tx negmine.Transaction) error {
		for i, it := range tx.Items {
			if i > 0 {
				if _, err := f.WriteString(" "); err != nil {
					return err
				}
			}
			if _, err := f.WriteString(tax.Name(it)); err != nil {
				return err
			}
		}
		_, err := f.WriteString("\n")
		return err
	})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

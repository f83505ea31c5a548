// Command nmtx inspects and converts transaction files in the library's
// binary format (plain or gzipped).
//
//	nmtx -stats data.nmtx              # header + basket statistics
//	nmtx -head 5 data.nmtx             # first baskets as integer ids
//	nmtx -convert out.txt data.nmtx    # binary → integer basket text
//	nmtx -pack out.nmtx.gz data.txt    # basket text → (gzipped) binary
//
// With -log DIR the tool operates on a streaming segment log (the negmined
// -ingest-dir format) instead of a single file:
//
//	nmtx -log dir -info                # manifest + per-segment summary
//	nmtx -log dir -append data.nmtx    # append a file's transactions
//	nmtx -log dir -seal                # seal the active segment
//	nmtx -log dir -compact             # merge small adjacent segments
//
// The snap subcommand inspects binary rule snapshots (.nsnap, written by
// `negmine -snap` or a negmined -snapshot-dir store):
//
//	nmtx snap info file.nsnap          # header, provenance, section table
//	nmtx snap verify file.nsnap        # checksum + structural verification
//	nmtx snap diff old.nsnap new.nsnap # rule-set delta
//
// The cluster subcommand talks to a running negrouter:
//
//	nmtx cluster status -router URL    # shard health, generations, failures
//
// Packed .nmtx files are the -data input of the mining pipeline: `negmine
// -data out.nmtx -format json` writes the report JSON that the cmd/negmined
// daemon serves (`negmined -report rules.json`, or `negmined -data out.nmtx`
// to mine and serve directly).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"negmine"
	"negmine/internal/cli"
	"negmine/internal/item"
	"negmine/internal/seglog"
	"negmine/internal/txdb"
)

func main() { cli.Main("nmtx", run) }

func run(args []string, out io.Writer) error {
	// `nmtx snap ...` and `nmtx cluster ...` are subcommand families with
	// their own argument shapes; dispatch before flag parsing.
	if len(args) > 0 && args[0] == "snap" {
		return runSnap(args[1:], out)
	}
	if len(args) > 0 && args[0] == "cluster" {
		return runCluster(args[1:], out)
	}
	fs := flag.NewFlagSet("nmtx", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		stats   = fs.Bool("stats", false, "print header and basket statistics")
		head    = fs.Int("head", 0, "print the first N baskets")
		convert = fs.String("convert", "", "write the file as integer basket text to this path")
		pack    = fs.String("pack", "", "write the (text) input as binary to this path (.gz for gzip)")

		logDir  = fs.String("log", "", "operate on this segment-log directory (negmined -ingest-dir format)")
		appendF = fs.String("append", "", "append this file's transactions to the -log")
		seal    = fs.Bool("seal", false, "seal the -log's active segment")
		compact = fs.Bool("compact", false, "merge small adjacent sealed segments in the -log")
		info    = fs.Bool("info", false, "print the -log's manifest and per-segment summary")
	)
	defaultUsage := fs.Usage
	fs.Usage = func() {
		defaultUsage()
		fmt.Fprintln(fs.Output(), `
Packed .nmtx files feed the mining pipeline: "negmine -data FILE.nmtx -format json"
writes the report JSON that the negmined daemon serves ("negmined -report rules.json"),
and "negmined -data FILE.nmtx" mines and serves it directly.`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logDir != "" {
		if fs.NArg() != 0 {
			fs.Usage()
			return fmt.Errorf("-log mode takes no positional arguments")
		}
		return runLog(out, *logDir, *appendF, *seal, *compact, *info)
	}
	if *appendF != "" || *seal || *compact || *info {
		fs.Usage()
		return fmt.Errorf("-append/-seal/-compact/-info require -log")
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one input file required")
	}
	path := fs.Arg(0)

	db, err := open(path)
	if err != nil {
		return err
	}

	did := false
	if *stats {
		did = true
		if err := printStats(out, path, db); err != nil {
			return err
		}
	}
	if *head > 0 {
		did = true
		n := 0
		err := db.Scan(func(tx negmine.Transaction) error {
			if n >= *head {
				return errEnough
			}
			n++
			ids := make([]string, tx.Items.Len())
			for i, x := range tx.Items {
				ids[i] = fmt.Sprint(x)
			}
			fmt.Fprintf(out, "%d: %s\n", tx.TID, strings.Join(ids, " "))
			return nil
		})
		if err != nil && err != errEnough {
			return err
		}
	}
	if *convert != "" {
		did = true
		f, err := os.Create(*convert)
		if err != nil {
			return err
		}
		if err := writeInts(f, db); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote basket text to %s\n", *convert)
	}
	if *pack != "" {
		did = true
		if err := negmine.SaveDB(*pack, db); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote binary to %s\n", *pack)
	}
	if !did {
		return printStats(out, path, db) // default action
	}
	return nil
}

var errEnough = fmt.Errorf("enough")

// runLog is the -log mode: inspect and maintain a streaming segment log.
// Actions compose left to right (append, then seal, then compact); with no
// action, or with -info, the manifest summary is printed.
func runLog(out io.Writer, dir, appendF string, seal, compact, info bool) error {
	log, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		return err
	}
	defer log.Close()

	did := false
	if appendF != "" {
		did = true
		db, err := open(appendF)
		if err != nil {
			return err
		}
		const batch = 4096
		buf := make([]item.Itemset, 0, batch)
		var first, last int64
		var total int
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			lo, hi, err := log.Append(buf)
			if err != nil {
				return err
			}
			if total == 0 {
				first = lo
			}
			last = hi
			total += len(buf)
			buf = buf[:0]
			return nil
		}
		err = db.Scan(func(tx negmine.Transaction) error {
			buf = append(buf, tx.Items.Clone())
			if len(buf) == batch {
				return flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
		if total == 0 {
			fmt.Fprintf(out, "%s: no transactions to append\n", appendF)
		} else {
			fmt.Fprintf(out, "appended %d transactions (TIDs %d..%d)\n", total, first, last)
		}
	}
	if seal {
		did = true
		if err := log.Seal(); err != nil {
			return err
		}
		fmt.Fprintln(out, "sealed active segment")
	}
	if compact {
		did = true
		merged, err := log.Compact()
		if err != nil {
			return err
		}
		if merged {
			fmt.Fprintln(out, "compacted a run of small segments")
		} else {
			fmt.Fprintln(out, "nothing to compact")
		}
	}
	if info || !did {
		printLogInfo(out, dir, log)
	}
	return nil
}

func printLogInfo(out io.Writer, dir string, log *seglog.Log) {
	st := log.Stats()
	fmt.Fprintf(out, "%s:\n", dir)
	fmt.Fprintf(out, "  sealed segments: %d (%d transactions, %d bytes)\n",
		st.Segments, st.SealedTxns, st.SealedBytes)
	fmt.Fprintf(out, "  active segment:  %d transactions (%d bytes)\n",
		st.ActiveTxns, st.ActiveBytes)
	fmt.Fprintf(out, "  next TID:        %d\n", st.NextTID)
	if st.RecoveredDrop > 0 {
		fmt.Fprintf(out, "  torn bytes dropped at recovery: %d\n", st.RecoveredDrop)
	}
	for _, v := range log.SealedViews() {
		e := v.Entry
		fmt.Fprintf(out, "  seg-%08d: %6d txns, %8d bytes, TIDs %d..%d, crc %08x\n",
			e.ID, e.Txns, e.Bytes, e.MinTID, e.MaxTID, e.CRC)
	}
}

// open loads path as binary (.nmtx/.nmtx.gz) or integer basket text.
func open(path string) (negmine.DB, error) {
	if txdb.IsBinaryPath(path) {
		return negmine.OpenDB(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return negmine.ReadBasketsInts(f)
}

func printStats(out io.Writer, path string, db negmine.DB) error {
	st, err := negmine.CollectStats(db)
	if err != nil {
		return err
	}
	// Basket length histogram.
	hist := map[int]int{}
	if err := db.Scan(func(tx negmine.Transaction) error {
		hist[tx.Items.Len()]++
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s:\n", path)
	fmt.Fprintf(out, "  transactions: %d\n", st.Transactions)
	fmt.Fprintf(out, "  total items:  %d\n", st.TotalItems)
	fmt.Fprintf(out, "  avg length:   %.2f\n", st.AvgLen)
	fmt.Fprintf(out, "  max item id:  %d\n", st.MaxItem)
	lengths := make([]int, 0, len(hist))
	for l := range hist {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	fmt.Fprintln(out, "  length histogram:")
	for _, l := range lengths {
		fmt.Fprintf(out, "    %3d: %d\n", l, hist[l])
	}
	return nil
}

func writeInts(w io.Writer, db negmine.DB) error {
	err := db.Scan(func(tx negmine.Transaction) error {
		for i, x := range tx.Items {
			if i > 0 {
				if _, err := fmt.Fprint(w, " "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprint(w, int(x)); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(w)
		return err
	})
	return err
}

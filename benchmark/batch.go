package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"negmine/internal/apriori"
	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/gen"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/txdb"
)

// batchSpec is what distinguishes batch-tall from batch-wide.
type batchSpec struct {
	workload string
	params   datagen.Params
	txns     int
	opt      negative.Options
}

func batchSpecFor(workload string, sz sizes) batchSpec {
	if workload == wlBatchTall {
		return batchSpec{workload, datagen.Tall(), sz.tallTxns, mineOptions(sz.tallMinSup, sz.tallMinRI, 0)}
	}
	return batchSpec{workload, datagen.Short(), sz.wideTxns, mineOptions(sz.wideMinSup, sz.wideMinRI, 0)}
}

// cycleOut is what one re-mine cycle leaves behind.
type cycleOut struct {
	res       *negative.Result
	snap      *serve.Snapshot // built in memory
	reopened  *serve.Snapshot // the same snapshot after .nsnap write + open
	fileBytes int64
}

// batchCycle is the call sequence negmined runs on every re-mine:
// transactions in memory → negative rules → report → rule store → snapshot
// → .nsnap on disk → re-opened servable. With a tracer, the black-box
// negative.Mine is replaced by its public parts so each layer gets a span.
func batchCycle(tr *tracer, ds *dataset, opt negative.Options, path string) (*cycleOut, error) {
	out := &cycleOut{}
	var err error
	tr.in("cycle", func() {
		if tr == nil {
			out.res, err = negative.Mine(ds.db, ds.tax, opt)
		} else {
			out.res, err = tracedMine(tr, ds, opt)
		}
		if err != nil {
			return
		}
		var rep *report.NegativeReport
		tr.in("report.build", func() {
			rep = report.BuildNegative(out.res, opt.MinSupport, opt.MinRI, ds.tax.Name)
		})
		var st *rulestore.Store
		tr.in("rulestore.from_report", func() { st = rulestore.FromReport(rep) })
		tr.in("serve.snapshot_build", func() {
			out.snap = serve.BuildSnapshot(st, ds.tax, serve.Meta{Source: "negbench " + ds.name, MinSupport: opt.MinSupport, MinRI: opt.MinRI})
		})
		tr.in("snapfmt.encode", func() { err = serve.WriteSnapshotFile(path, out.snap, 1) })
		if err != nil {
			return
		}
		tr.in("snapfmt.open", func() { out.reopened, err = serve.OpenSnapshotFile(path, 0) })
	})
	if err != nil {
		return nil, fmt.Errorf("%s cycle: %w", ds.name, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out.fileBytes = fi.Size()
	return out, nil
}

// tracedMine is negative.Mine's Improved driver taken apart at its public
// seams: gen.Mine, then negative.MineWithCounts with the batch CountFunc
// (count.MultiTransformed over the whole database) wrapped in a span. The
// database is deliberately not wrapped in txdb.Instrument: count.EngineFor
// would silently fall back to the hash tree.
func tracedMine(tr *tracer, ds *dataset, opt negative.Options) (*negative.Result, error) {
	opt.Gen.MinSupport = opt.MinSupport
	var (
		large *apriori.Result
		res   *negative.Result
		err   error
	)
	tr.in("gen.stage1", func() { large, err = gen.Mine(ds.db, ds.tax, opt.Gen) })
	if err != nil {
		return nil, err
	}
	tr.in("negative.stages23", func() {
		res, err = negative.MineWithCounts(large, ds.tax, opt, func(groups [][]item.Itemset, transforms []count.TransformInto) (counts [][]int, cerr error) {
			tr.in("count.negpass", func() {
				cnt := opt.Count
				cnt.Tax = ds.tax
				counts, cerr = count.MultiTransformed(ds.db, groups, transforms, cnt)
			})
			return counts, cerr
		})
	})
	return res, err
}

// probeOut carries the counts the probes observed.
type probeOut struct {
	candidates  int
	matrixBytes int64
	nsPerWord   float64
}

// probes times the layers MineWithCounts does not expose a seam for, on the
// inputs the cycle just used and outside its root span: taxonomy
// restriction and candidate generation (stage 2), and the bitmap kernel.
func probes(tr *tracer, ds *dataset, opt negative.Options, large *apriori.Result) (probeOut, error) {
	var out probeOut
	var err error
	tr.in("probe", func() {
		gtax := ds.tax
		tr.in("taxonomy.restrict", func() {
			gtax = ds.tax.Restrict(func(x item.Item) bool { return large.Table.Contains(item.Itemset{x}) })
		})
		var cands []negative.Candidate
		tr.in("negative.candgen", func() {
			cands = negative.GenerateCandidates(large.Levels, large.Table, gtax, opt.MinSupport, opt.MinRI, nil)
		})
		out.candidates = len(cands)
		if len(cands) == 0 {
			return
		}
		sets := make([]item.Itemset, len(cands))
		var all []item.Item
		for i, c := range cands {
			sets[i] = c.Set
			all = append(all, c.Set...)
		}
		items := item.SortDedup(all)
		var m *bitmat.Matrix
		tr.in("bitmat.build", func() { m, err = bitmat.FromDBTaxonomy(ds.db, ds.tax, items) })
		if err != nil {
			return
		}
		out.matrixBytes = m.Bytes()
		tr.in("bitmat.counts", func() { _, err = m.Counts(sets, runtime.NumCPU()) })
		if err != nil {
			return
		}
		// AND+popcount over full rows, every adjacent pair of item rows,
		// repeated until the clock can resolve it.
		words, sink := 0, 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for i := 1; i < len(items); i++ {
				sink += bitmat.AndPopCount(m.Row(items[i-1]), m.Row(items[i]))
				words += m.Words()
			}
		}
		if words > 0 && sink >= 0 {
			out.nsPerWord = float64(time.Since(start).Nanoseconds()) / float64(words)
		}
	})
	return out, err
}

// batchSetup generates the dataset for the run's seed and runs one warm-up
// cycle (page cache for the snapshot file, allocator and pools warm).
func batchSetup(tr *tracer, e *env, spec batchSpec, path string) (*dataset, error) {
	var ds *dataset
	var err error
	tr.in("datagen.generate", func() { ds, err = sampled(spec.workload, spec.params, spec.txns, e.seed) })
	if err != nil {
		return nil, err
	}
	if _, err := batchCycle(nil, ds, spec.opt, path); err != nil {
		return nil, err
	}
	return ds, nil
}

func runBatch(e *env, workload string) (*outcome, error) {
	spec := batchSpecFor(workload, e.size)
	path := filepath.Join(e.workDir, workload+".nsnap")
	m := newMetrics()
	var tr *tracer
	if e.trace {
		tr = newTracer(workload)
	}

	var ds *dataset
	var setup []float64
	for r := 0; r < e.reps(); r++ {
		start := time.Now()
		var err error
		if ds, err = batchSetup(tr, e, spec, path); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	e.stamp.Datasets[ds.name] = ds.fp
	e.stamp.Sizes["txns"] = spec.txns
	e.stamp.Sizes["minsup"] = spec.opt.MinSupport
	e.stamp.Sizes["minri"] = spec.opt.MinRI

	// Timed, untraced cycles. The traced run spends half its window here so
	// that trace.overhead_share compares like with like in one process.
	window := e.window(1)
	if e.trace {
		window = e.window(0.5)
	}
	var cycles []float64
	var fps []string
	var last *cycleOut
	for begin := time.Now(); len(cycles) < 3 || time.Since(begin) < window; {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := batchCycle(nil, ds, spec.opt, path)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, time.Since(start).Seconds())
		fps = append(fps, fingerprintResult(out.res))
		last = out
	}
	remine := median(cycles)
	fmt.Fprintf(e.log, "%s: %d timed cycles, median %.4fs, %d rules, %d negatives\n",
		workload, len(cycles), remine, len(last.res.Rules), len(last.res.Negatives))

	if !e.trace {
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		m.set("setup_s", median(setup))
		m.set("result_p50_ms", remine*1e3)
		m.set("throughput_per_s", float64(spec.txns)/mean(cycles))
		m.set("peak_rss_mb", rss)
	} else {
		if err := batchTraced(e, tr, m, ds, spec, path, remine, &fps); err != nil {
			return nil, err
		}
	}

	batchChecks(e, ds, spec, fps, last)
	return &outcome{m: m, attempted: len(fps)}, nil
}

// batchTraced runs the traced cycles and turns their spans into the mining
// ledger.
func batchTraced(e *env, tr *tracer, m *metrics, ds *dataset, spec batchSpec, path string, remine float64, fps *[]string) error {
	var last *cycleOut
	var probe probeOut
	for c := 0; c < e.size.tracedCycles; c++ {
		tr.cycle = c
		out, err := batchCycle(tr, ds, spec.opt, path)
		if err != nil {
			return err
		}
		*fps = append(*fps, fingerprintResult(out.res))
		if probe, err = probes(tr, ds, spec.opt, out.res.Large); err != nil {
			return err
		}
		last = out
	}
	// Allocation volume of the black-box call, one extra cycle's worth.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := negative.Mine(ds.db, ds.tax, spec.opt); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	total, self := totals(tr.spans), selfTimes(tr.spans)
	med := func(name string) float64 { return median(byCycle(tr.spans, total, name)) }
	for _, lm := range []struct{ metric, span string }{
		{"datagen.generate_s", "datagen.generate"},
		{"gen.stage1_s", "gen.stage1"},
		{"taxonomy.restrict_s", "taxonomy.restrict"},
		{"negative.candgen_s", "negative.candgen"},
		{"negative.stages23_s", "negative.stages23"},
		{"count.negpass_s", "count.negpass"},
		{"bitmat.build_s", "bitmat.build"},
		{"bitmat.counts_s", "bitmat.counts"},
		{"report.build_s", "report.build"},
		{"rulestore.from_report_s", "rulestore.from_report"},
		{"serve.snapshot_build_s", "serve.snapshot_build"},
		{"snapfmt.encode_s", "snapfmt.encode"},
		{"snapfmt.open_s", "snapfmt.open"},
		{"trace.root_s", "cycle"},
	} {
		m.set(lm.metric, med(lm.span))
	}
	root, candgen, negpass := med("cycle"), med("negative.candgen"), med("count.negpass")
	// Derived, not measured: what is left of stages 2–3 once the counting
	// span and the probed restriction and candidate generation are taken out.
	// The probe is a second execution, so the difference can dip below zero.
	m.set("negative.rulegen_s", max(0, med("negative.stages23")-negpass-candgen-med("taxonomy.restrict")))
	m.set("gen.large_itemsets", float64(len(last.res.Large.Large())))
	m.set("negative.candidates", float64(probe.candidates))
	m.set("negative.negatives", float64(len(last.res.Negatives)))
	m.set("negative.rules", float64(len(last.res.Rules)))
	m.set("negative.mine_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if probe.candidates > 0 {
		m.set("negative.candgen_us_per_candidate", candgen*1e6/float64(probe.candidates))
		if negpass > 0 {
			m.set("count.negpass_candidates_per_s", float64(probe.candidates)/negpass)
		}
	}
	m.set("bitmat.matrix_bytes", float64(probe.matrixBytes))
	m.set("bitmat.andpopcount_ns_per_word", probe.nsPerWord)
	layout := last.snap.Layout()
	m.set("serve.arena_bytes", float64(layout.ArenaBytes))
	m.set("serve.index_bytes", float64(layout.Antecedent.Bytes+layout.Consequent.Bytes+layout.Reach.Bytes))
	m.set("snapfmt.file_bytes", float64(last.fileBytes))
	m.set("trace.remine_s", remine)
	m.set("trace.overhead_share", (root-remine)/remine)
	m.set("trace.unattributed_share", median(byCycle(tr.spans, self, "cycle"))/root)
	m.set("trace.candgen_share", candgen/remine)
	m.set("trace.scan_share", (med("gen.stage1")+negpass)/remine)

	path, err := tr.write(e.outDir, e.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "%s: %d spans written to %s\n", spec.workload, len(tr.spans), path)
	return nil
}

// batchChecks compares the cycles with each other, with the paper's other
// algorithm, with the other counting backend, and the re-opened snapshot
// with the in-memory one.
func batchChecks(e *env, ds *dataset, spec batchSpec, fps []string, last *cycleOut) {
	same := true
	for _, fp := range fps {
		same = same && fp == fps[0]
	}
	e.checks.check("cycles-identical", same, "rule-set fingerprints differ across cycles: %v", fps)

	naive := spec.opt
	naive.Algorithm = negative.Naive
	res, err := negative.Mine(ds.db, ds.tax, naive)
	e.checks.check("naive-oracle", err == nil && fingerprintResult(res) == fps[0],
		"Naive disagrees with Improved (err %v)", err)

	// The hash-tree backend on the same input — or, where that would take
	// half a minute (batch-wide), both backends on a prefix of it.
	hashDB, want := ds.db, fps[0]
	if spec.workload == wlBatchWide && ds.db.Count() > e.size.widePrefix {
		hashDB = &txdb.MemDB{}
		for _, tx := range ds.db.Transactions()[:e.size.widePrefix] {
			hashDB.Append(tx)
		}
		res, err := negative.Mine(hashDB, ds.tax, spec.opt)
		if err != nil {
			e.checks.check("hashtree-oracle", false, "bitmap run on prefix: %v", err)
			return
		}
		want = fingerprintResult(res)
	}
	hash := spec.opt
	hash.Count.Backend = count.BackendHashTree
	hash.Gen.Count.Backend = count.BackendHashTree
	res, err = negative.Mine(hashDB, ds.tax, hash)
	e.checks.check("hashtree-oracle", err == nil && fingerprintResult(res) == want,
		"hash-tree backend disagrees with auto (err %v)", err)

	vocab, misses := vocabulary(last.snap.Rules(), ds.tax, func(name string) bool {
		return len(last.snap.QueryEntries(name, 0, 1)) > 0
	}, 64)
	ops, err := genOps(1, e.size.fixedQueries, vocab, misses)
	if err != nil {
		e.checks.check("nsnap-roundtrip", false, "%v", err)
		return
	}
	a, err1 := snapshotAnswers(last.snap, ops)
	b, err2 := snapshotAnswers(last.reopened, ops)
	e.checks.check("nsnap-roundtrip", err1 == nil && err2 == nil && bytes.Equal(a, b),
		"re-opened .nsnap answers differ from the in-memory snapshot (err %v / %v)", err1, err2)
}

// snapshotAnswers renders a snapshot's answers to ops as JSON.
func snapshotAnswers(snap *serve.Snapshot, ops []readOp) ([]byte, error) {
	var err error
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, o := range ops {
		if o.Score {
			err = enc.Encode(snap.Matches(o.Basket, 0, readLimit))
		} else {
			err = enc.Encode(snap.QueryEntries(o.Item, 0, readLimit))
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"negmine/internal/artifact"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

// ruleSet is what a rule source produces: the rules, the taxonomy they were
// mined under, and what the snapshot built from them is stamped with.
type ruleSet struct {
	rules *rulestore.Store
	tax   *taxonomy.Taxonomy
	meta  serve.Meta // Source and thresholds; the loader adds Keep
	kind  string     // sourceKind: json, mined or ingest
	wm    *watermark // ingest horizon the rules cover (streaming only)
}

// ruleSource yields a fresh rule set on every call. There are three:
// reportSource, mineSource and the streaming controller's refresh.
type ruleSource func(ctx context.Context) (ruleSet, error)

// loader is the daemon's one serve.LoadFunc. Every snapshot, at boot, on
// /reload, from -watch and from an ingest trigger, is made by load:
//
//  1. The first load, or every load of a replica (no source), takes the
//     snapshot store's newest generation that validates: an mmap that skips
//     the parse or mine entirely. A corrupted or torn generation is rejected
//     by snapfmt validation and the next-newest one is tried; a producer
//     whose store is empty or unusable falls through to its source.
//  2. Otherwise the source runs and its rules are built into a snapshot
//     holding only this shard's rules (serve.Meta.Keep).
//  3. A built snapshot is stamped with its provenance, and every snapshot
//     with the shard label, which .nsnap files do not carry.
//  4. With -snapshot-save, a built snapshot is persisted as a new
//     generation.
type loader struct {
	src   ruleSource   // nil: replica
	spec  shardSpec    // -shard assignment
	store *artifact.FS // -snapshot-dir (nil = none)
	save  bool         // -snapshot-save
	out   io.Writer

	booted atomic.Bool
}

func (l *loader) load(ctx context.Context) (*serve.Snapshot, error) {
	first := !l.booted.Swap(true)
	var snap *serve.Snapshot
	if l.store != nil && (l.src == nil || first) {
		s, err := l.newest()
		switch {
		case err == nil:
			snap = s
		case l.src == nil:
			return nil, fmt.Errorf("snapshot store %s: %w", l.store.Dir(), err)
		case !errors.Is(err, artifact.ErrEmpty):
			fmt.Fprintf(l.out, "negmined: snapshot store unusable (%v); rebuilding from source\n", err)
		}
	}
	built := snap == nil
	if built {
		rs, err := l.src(ctx)
		if err != nil {
			return nil, err
		}
		rs.meta.Keep = l.spec.keep()
		snap = serve.BuildSnapshot(rs.rules, rs.tax, rs.meta)
		snap.SetProvenance(0, rs.kind)
		if rs.wm != nil {
			snap.SetWatermark(rs.wm.tid, rs.wm.at)
		}
	}
	if l.spec.active() {
		snap.SetShard(l.spec.shard, l.spec.shards)
	}
	if built && l.save {
		l.persist(snap)
	}
	return snap, nil
}

// newest opens the store's newest generation that validates, walking
// backwards past corrupted ones.
func (l *loader) newest() (*serve.Snapshot, error) {
	gens, err := l.store.List()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, artifact.ErrEmpty
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i].Generation
		path, _, err := l.store.Localize(gen)
		if err == nil {
			var snap *serve.Snapshot
			if snap, err = serve.OpenSnapshotFile(path, 0); err == nil {
				return snap, nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(l.out, "negmined: snapshot generation %d rejected: %v\n", gen, err)
	}
	return nil, firstErr
}

// persist stores snap as a new generation. Persistence is auxiliary: on
// failure the fresh snapshot still serves (with generation 0), and the
// store keeps its previous newest generation for the next restart.
func (l *loader) persist(snap *serve.Snapshot) {
	info, err := l.store.Put(snap.SourceKind(), func(gen uint64, w io.Writer) error {
		return serve.EncodeSnapshot(w, snap, gen)
	})
	if err != nil {
		fmt.Fprintf(l.out, "negmined: snapshot persist failed (still serving the fresh snapshot): %v\n", err)
		return
	}
	// Stamp before the server publishes the snapshot (load has not returned
	// yet), so /metrics reports the generation queries are served from.
	snap.SetProvenance(info.Generation, snap.SourceKind())
	fmt.Fprintf(l.out, "negmined: snapshot generation %d persisted (%d bytes)\n", info.Generation, info.Size)
}

// reportSource re-reads a report JSON file on every call. The taxonomy is
// also re-read so a snapshot always pairs the report with the hierarchy it
// was mined under.
func reportSource(repPath, taxPath string) ruleSource {
	return func(ctx context.Context) (ruleSet, error) {
		tax, err := loadTaxonomy(taxPath)
		if err != nil {
			return ruleSet{}, err
		}
		f, err := os.Open(repPath)
		if err != nil {
			return ruleSet{}, err
		}
		defer f.Close()
		rep, err := report.ReadNegativeJSON(f)
		if err != nil {
			return ruleSet{}, fmt.Errorf("reading %s: %w", repPath, err)
		}
		meta := serve.Meta{Source: "report " + repPath, MinSupport: rep.MinSupport, MinRI: rep.MinRI}
		return ruleSet{rules: rulestore.FromReport(rep), tax: tax, meta: meta, kind: "json"}, nil
	}
}

// mineSource runs the full mining pipeline on every call: hot re-mining.
// Data and taxonomy are re-read each time so dropping a fresh file in place
// plus /reload (or -watch) picks it up.
func mineSource(dataPath, taxPath string, opt negative.Options) ruleSource {
	return func(ctx context.Context) (ruleSet, error) {
		tax, err := loadTaxonomy(taxPath)
		if err != nil {
			return ruleSet{}, err
		}
		db, err := loadData(dataPath, tax.Dictionary())
		if err != nil {
			return ruleSet{}, err
		}
		res, err := negative.Mine(db, tax, opt)
		if err != nil {
			return ruleSet{}, fmt.Errorf("mining %s: %w", dataPath, err)
		}
		meta := serve.Meta{Source: "mined " + dataPath, MinSupport: opt.MinSupport, MinRI: opt.MinRI}
		return ruleSet{rules: rulestore.New(res, tax.Name), tax: tax, meta: meta, kind: "mined"}, nil
	}
}

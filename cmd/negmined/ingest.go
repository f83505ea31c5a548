package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"negmine/internal/incr"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/rulestore"
	"negmine/internal/seglog"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// ingestController is the streaming-mode backend: it owns the segment log
// and the incremental miner, implements serve.IngestSink for POST /ingest,
// and supplies the LoadFunc whose refreshes the auto re-mine triggers fire.
//
// The taxonomy (and its dictionary) is loaded once at startup and never
// reloaded: transaction ids in the log are only meaningful against the
// dictionary they were interned into, and a read-only dictionary is what
// makes concurrent /ingest and snapshot queries safe without locking.
type ingestController struct {
	log   *seglog.Log
	miner *incr.Miner
	tax   *taxonomy.Taxonomy
	opt   negative.Options

	srv        atomic.Pointer[serve.Server] // set after NewServer (attach)
	pending    atomic.Int64                 // txns appended since last refresh start
	refreshes  atomic.Int64                 // completed refreshes
	wm         atomic.Pointer[watermark]    // newest append (tid, wall time)
	remineTxns int64                        // pending threshold that triggers a re-mine (0 = off)

	// ha, when non-nil, routes writes through the primary/standby protocol
	// (fencing token, replication ack) instead of plain appends. Set once in
	// run(), before the listener accepts traffic.
	ha *haController

	// keep, when non-nil, is the cluster shard predicate: only rules it
	// accepts are indexed into refreshed snapshots (serve.Meta.Keep).
	keep func(ante, cons []string) bool
}

// newIngestController opens (or creates) the segment log, seeds it from
// dataPath when the log is empty and a seed is given, and returns the
// controller ready to be wired into a Server.
func newIngestController(dir, dataPath, taxPath string, opt negative.Options, remineTxns, dedupWindow int, keep func(ante, cons []string) bool) (*ingestController, error) {
	tax, err := loadTaxonomy(taxPath)
	if err != nil {
		return nil, err
	}
	log, err := seglog.Open(dir, seglog.Options{DedupWindow: dedupWindow})
	if err != nil {
		return nil, err
	}
	c := &ingestController{
		log:        log,
		miner:      incr.New(tax, opt),
		tax:        tax,
		opt:        opt,
		remineTxns: int64(remineTxns),
		keep:       keep,
	}
	if dataPath != "" && log.Count() == 0 {
		if err := c.seed(dataPath); err != nil {
			log.Close()
			return nil, fmt.Errorf("seeding %s from %s: %w", dir, dataPath, err)
		}
	}
	// An empty log (no seed) is fine: the daemon starts with an empty rule
	// set and /ingest fills the log from scratch.
	return c, nil
}

// watermark is one (transaction id, append wall time) pair. The controller
// keeps the newest one so each refreshed snapshot can be stamped with the
// ingest horizon it covers (serve.Snapshot.SetWatermark).
type watermark struct {
	tid int64
	at  time.Time
}

// noteAppend advances the append watermark to tid at the current wall time.
// Monotonic in tid: a slow writer publishing after a faster one cannot move
// the watermark backwards.
func (c *ingestController) noteAppend(tid int64) {
	if tid <= 0 {
		return
	}
	w := &watermark{tid: tid, at: time.Now()}
	for {
		old := c.wm.Load()
		if old != nil && old.tid >= tid {
			return
		}
		if c.wm.CompareAndSwap(old, w) {
			return
		}
	}
}

// seed imports a transaction file into the empty log in sealed batches, so
// the import never holds more than one batch in the active segment.
func (c *ingestController) seed(dataPath string) error {
	db, err := loadData(dataPath, c.tax.Dictionary())
	if err != nil {
		return err
	}
	const batch = 4096
	buf := make([]item.Itemset, 0, batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, last, err := c.log.Append(buf)
		if err != nil {
			return err
		}
		c.noteAppend(last)
		buf = buf[:0]
		return c.log.Seal()
	}
	err = db.Scan(func(tx txdb.Transaction) error {
		buf = append(buf, tx.Items.Clone())
		if len(buf) == batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// attach hands the controller the server whose reloads it triggers. Called
// once, after NewServer and before the listener accepts traffic.
func (c *ingestController) attach(srv *serve.Server) { c.srv.Store(srv) }

// Close closes the underlying segment log.
func (c *ingestController) Close() error { return c.log.Close() }

// load is the streaming-mode LoadFunc: an incremental refresh over the log.
func (c *ingestController) load(ctx context.Context) (*serve.Snapshot, error) {
	// Best effort: appends racing with the refresh may be sealed into it and
	// still counted pending until the next refresh — pending only drives
	// triggers and metrics, never correctness.
	c.pending.Store(0)
	// Capture the watermark before Refresh seals the active segment:
	// everything appended up to this point is guaranteed into the refresh,
	// so the stamp is a lower bound and freshness is only ever overstated,
	// never understated.
	wm := c.wm.Load()
	res, err := c.miner.Refresh(c.log)
	if err != nil {
		return nil, err
	}
	c.refreshes.Add(1)
	meta := serve.Meta{
		Source:     "ingest " + c.log.Dir(),
		MinSupport: c.opt.MinSupport,
		MinRI:      c.opt.MinRI,
		Keep:       c.keep,
	}
	snap := serve.BuildSnapshot(rulestore.New(res, c.tax.Name), c.tax, meta)
	snap.SetProvenance(0, "ingest")
	if wm != nil {
		snap.SetWatermark(wm.tid, wm.at)
	}
	return snap, nil
}

// Ingest implements serve.IngestSink: name resolution against the read-only
// dictionary, a durable (and on HA pairs, replicated) append, and the
// transaction-count re-mine trigger.
func (c *ingestController) Ingest(ctx context.Context, batch serve.IngestBatch) (serve.IngestResult, error) {
	dict := c.tax.Dictionary()
	sets := make([]item.Itemset, len(batch.Baskets))
	for i, b := range batch.Baskets {
		items := make([]item.Item, len(b))
		for j, name := range b {
			id, ok := dict.Lookup(name)
			if !ok {
				return serve.IngestResult{}, fmt.Errorf("%w: basket %d: unknown item %q", serve.ErrIngestRejected, i, name)
			}
			items[j] = id
		}
		sets[i] = item.New(items...)
	}
	var (
		ares seglog.AppendResult
		err  error
	)
	if c.ha != nil {
		ares, err = c.ha.ingestBatch(ctx, sets, batch.Key, batch.Seq)
	} else {
		ares, err = c.log.AppendBatch(seglog.Batch{Baskets: sets, Epoch: -1, Key: batch.Key, Seq: batch.Seq})
	}
	if err != nil {
		return serve.IngestResult{}, mapSeglogErr(err)
	}
	res := serve.IngestResult{FirstTID: ares.First, LastTID: ares.Last, Accepted: len(sets), Duplicate: ares.Duplicate}
	if ares.Duplicate {
		// A replayed ack: nothing new was appended, so nothing becomes pending.
		return res, nil
	}
	c.noteAppend(ares.Last)
	p := c.pending.Add(int64(len(sets)))
	if c.remineTxns > 0 && p >= c.remineTxns {
		if srv := c.srv.Load(); srv != nil {
			// The reload outlives this request, like POST /reload's 202 path.
			res.Refreshed = srv.TriggerReload(context.Background())
		}
	}
	return res, nil
}

// mapSeglogErr translates seglog write-path refusals into the serve layer's
// sentinel errors so the handler can pick the right status code. Errors that
// already carry a serve sentinel (the HA controller's) pass through.
func mapSeglogErr(err error) error {
	switch {
	case errors.Is(err, serve.ErrIngestFenced),
		errors.Is(err, serve.ErrIngestNotPrimary),
		errors.Is(err, serve.ErrIngestStale),
		errors.Is(err, serve.ErrIngestUnavailable):
		return err
	case errors.Is(err, seglog.ErrFenced):
		return fmt.Errorf("%w: %v", serve.ErrIngestFenced, err)
	case errors.Is(err, seglog.ErrStaleSeq):
		return fmt.Errorf("%w: %v", serve.ErrIngestStale, err)
	}
	return err
}

// noteReplicated accounts transactions that arrived through replication
// (store adoption or the tail stream) rather than /ingest, so the standby's
// auto re-mine trigger and pendingTxns gauge track the primary's writes.
func (c *ingestController) noteReplicated(n int64) {
	if n <= 0 {
		return
	}
	c.noteAppend(c.log.NextTID() - 1)
	p := c.pending.Add(n)
	if c.remineTxns > 0 && p >= c.remineTxns {
		if srv := c.srv.Load(); srv != nil {
			srv.TriggerReload(context.Background())
		}
	}
}

// RoleLag reports the node's ingest role and replication lag for heartbeats.
// A solo streaming daemon is its own primary with nothing to lag behind.
func (c *ingestController) RoleLag() (string, int) {
	if c.ha != nil {
		return c.ha.roleLag()
	}
	return haRolePrimary, 0
}

// Stats implements serve.IngestSink for the /metrics ingest block.
func (c *ingestController) Stats() serve.IngestStats {
	ls := c.log.Stats()
	ms := c.miner.LastStats()
	st := serve.IngestStats{
		Segments:               ls.Segments,
		SealedTxns:             ls.SealedTxns,
		SealedBytes:            ls.SealedBytes,
		ActiveTxns:             ls.ActiveTxns,
		TxnsAppended:           ls.TxnsAppended,
		Seals:                  ls.Seals,
		Compactions:            ls.Compactions,
		PendingTxns:            c.pending.Load(),
		Refreshes:              c.refreshes.Load(),
		LastRefreshSeconds:     ms.Duration.Seconds(),
		LastRefreshNewSegments: ms.NewSegments,
		LastRefreshOldScans:    ms.OldSegmentScans,
		Epoch:                  ls.Epoch,
		FencedAppends:          ls.FencedAppends,
		DedupHits:              ls.DedupHits,
		DedupEntries:           ls.DedupEntries,
	}
	if ms.Duration > 0 {
		st.LastRefresh = &serve.RefreshBreakdown{
			IndexAppendSeconds: ms.IndexAppend.Seconds(),
			Stage1Seconds:      ms.Stage1.Seconds(),
			RestrictSeconds:    ms.Restrict.Seconds(),
			CandGenSeconds:     ms.CandGen.Seconds(),
			CountSeconds:       ms.Count.Seconds(),
			RuleGenSeconds:     ms.RuleGen.Seconds(),
			IndexBytes:         ms.IndexBytes,
			LargeItems:         ms.LargeItems,
			RowBytes:           ms.RowBytes,
			GapBytes:           ms.GapBytes,
			CountBytes:         ms.CountBytes,
			RowsPromoted:       ms.RowsPromoted,
			TailSets:           ms.TailSets,
			FullSets:           ms.FullSets,
			RowWords:           ms.RowWords,
		}
	}
	st.Role, st.ReplLagSegments = c.RoleLag()
	return st
}

// remineLoop triggers a background refresh every interval while there is
// pending data, until ctx is cancelled.
func (c *ingestController) remineLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if c.pending.Load() == 0 {
				continue
			}
			if srv := c.srv.Load(); srv != nil {
				srv.TriggerReload(ctx)
			}
		}
	}
}

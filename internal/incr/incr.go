// Package incr keeps negative-rule results fresh over a segmented
// transaction log (internal/seglog) without re-reading old data.
//
// A Miner owns one append-only vertical index of the sealed log (see index):
// per taxonomy node, the positions of the transactions that support it.
// Sealed segments are immutable and new ones only arrive at the end, so a
// refresh reads just the segments past the (ID, CRC) prefix the index
// already covers; a compaction or a recycled ID drops the index and rebuilds
// it with one scan. Nothing is persisted: a restarted daemon's first refresh
// builds the index with the scan a batch mine would have made anyway.
//
// The refresh then runs the batch miner itself — negative.Mine — over a
// database that answers every counting pass from the index (count.Indexed):
// pass 1 is the posting-list lengths, every later pass is AND + popcount over
// dense rows materialised for the large 1-items only. The result is
// byte-identical to a batch mine of the same transactions because it is that
// batch mine, minus the data passes.
//
// Index memory is 4 bytes per posting (Σ |extended transaction|, about
// 107 B per transaction on the paper's Short data) plus N/8 bytes per large
// 1-item for the duration of a refresh, all reserved against Options.Count.Mem.
// When a reservation is refused the index is released and the refresh mines
// the sealed segments by scanning, as a batch mine under the same budget
// would.
package incr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"negmine/internal/apriori"
	"negmine/internal/count"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/negative"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// PointMerge is the failpoint (see internal/fault) evaluated after the index
// has been extended but before the mine runs.
const PointMerge = "incr.merge"

// RefreshStats describes what one Refresh actually did.
type RefreshStats struct {
	// Segments and N are the sealed segment and transaction totals the
	// refresh mined over.
	Segments int
	N        int
	// NewSegments is how many segments were read into the index this
	// refresh: the ones sealed since the last refresh, or all of them when
	// the index was built or rebuilt.
	NewSegments int
	// OldSegmentScans counts segment reads of data the index had already
	// seen: the re-reads of a rebuild forced by a changed log history, plus
	// every segment scan of a refresh that mined without the index. Zero is
	// the "only new segments read" steady state.
	OldSegmentScans int
	// IndexBytes is the index's posting storage after the refresh and
	// LargeItems the number of large 1-items it materialised rows for (both
	// zero when the refresh fell back to scanning).
	IndexBytes int64
	LargeItems int
	// Duration is the refresh wall time; the stage fields split it: the
	// index append, stage 1 (row materialisation plus large-itemset mining)
	// and negative.Timing's four parts of stages 2–3. Walk is what candidate
	// generation did in CandGen.
	Duration                          time.Duration
	IndexAppend, Stage1               time.Duration
	Restrict, CandGen, Count, RuleGen time.Duration
	Walk                              negative.WalkStats
}

// Miner incrementally mines a segment log. The zero value is not usable;
// see New. A Miner is safe for concurrent use, but refreshes serialize.
type Miner struct {
	tax *taxonomy.Taxonomy
	opt negative.Options

	mu  sync.Mutex // serializes refreshes; guards idx
	idx index

	// stats is the last completed refresh, published without mu so that a
	// health probe never waits out a running refresh.
	stats atomic.Pointer[RefreshStats]
}

// New returns a Miner refreshing with the given taxonomy and mining options
// (the same Options a batch negative.Mine call would take; the Algorithm
// field is ignored — a refresh always follows the Improved schedule).
func New(tax *taxonomy.Taxonomy, opt negative.Options) *Miner {
	return &Miner{tax: tax, opt: opt, idx: index{mem: opt.Count.Mem, tax: tax}}
}

// LastStats returns the statistics of the most recent completed Refresh. It
// never blocks on a refresh in progress.
func (m *Miner) LastStats() RefreshStats {
	if st := m.stats.Load(); st != nil {
		return *st
	}
	return RefreshStats{}
}

// Refresh seals the log's active segment, extends the index over the newly
// sealed segments and mines the complete sealed log. The returned Result is
// identical to negative.Mine over the same transactions.
func (m *Miner) Refresh(log *seglog.Log) (*negative.Result, error) {
	if err := log.Seal(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	views := log.SealedViews()
	st := RefreshStats{Segments: len(views)}
	for _, v := range views {
		st.N += v.Entry.Txns
	}
	snap := &sealed{views: views, n: st.N}
	var db txdb.DB = snap

	err := m.idx.extend(views, &st)
	st.IndexAppend = time.Since(start)
	if ferr := fault.Hit(PointMerge); ferr != nil {
		return nil, fmt.Errorf("incr: %w", ferr)
	}
	if err == nil {
		var v *count.Index
		if v, err = m.idx.view(snap, apriori.MinCount(m.opt.MinSupport, st.N)); err == nil {
			defer v.Release()
			db, st.IndexBytes, st.LargeItems = v, m.idx.bytes, v.Matrix().Items().Len()
		}
	}
	if errors.Is(err, govern.ErrOverBudget) {
		m.idx.drop() // no room for the index: mine the segments by scanning
	} else if err != nil {
		return nil, err
	}

	opt := m.opt
	opt.Algorithm = negative.Improved
	mineStart := time.Now()
	res, err := negative.Mine(db, m.tax, opt)
	if err != nil {
		return nil, err
	}
	st.OldSegmentScans += int(snap.reads.Load())
	t := res.Timing
	st.Stage1 = mineStart.Sub(start) - st.IndexAppend + t.Stage1
	st.Restrict, st.CandGen, st.Count, st.RuleGen, st.Walk = t.Restrict, t.CandGen, t.Count, t.RuleGen, res.Walk
	st.Duration = time.Since(start)
	m.stats.Store(&st)
	return res, nil
}

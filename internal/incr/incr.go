// Package incr keeps negative-rule results fresh over a segmented
// transaction log (internal/seglog) at a cost that follows what arrived, not
// the log.
//
// A Miner owns one append-only vertical index of the sealed log (see index):
// per taxonomy node, the positions of the transactions that support it — a
// dense row for a node that has been large, uvarint gaps for every other —
// the pair table of the nodes with rows (how many transactions hold each
// pair of them, the table a batch mine's count.BuildIndex fills), and every
// itemset of three or more the last refresh counted, with its count. Sealed
// segments are immutable and new ones only arrive at the end, so a refresh
// reads just the segments past the (ID, CRC) prefix the index already covers,
// sets their bits at the end of the rows and adds their pairs to the table. A
// node large for the first time is promoted to a row, and its pairs are
// counted into the table once, from the rows. Nothing is persisted: a
// restarted daemon's first refresh builds the index with the scan a batch
// mine would have made anyway.
//
// The refresh then runs the batch miner itself — negative.Mine — over a
// database that answers every counting pass from the index (count.Indexed):
// pass 1 is the nodes' position counts; level 2, and every 2-itemset of a
// later pass, is read off the pair table, as a batch mine reads it; every
// other pass finds the itemsets it was handed last time among the carried
// counts and ANDs only the words of their rows that hold the new
// transactions, and counts an itemset it has not seen over the whole rows.
// Support is a count over transactions, so the two add up, and the result is
// byte-identical to a batch mine of the same transactions because it is that
// batch mine: the same candidates in the same passes, minus the data passes
// and minus the words already counted. Candidate generation is not
// incremental; it runs whole, every refresh.
//
// One rule invalidates: rows, gap lists, the pair table and counts describe a
// prefix of the log by position, so whatever makes the sealed log anything
// but that prefix plus new segments — a compaction, a recycled segment ID, a
// rebuilt log — or leaves the index half-extended — a failed read, a refused
// reservation — drops them all together, and the next refresh rebuilds with
// one scan. Counts are replaced only by a refresh that ran to its end; one
// that fails after extending the rows leaves the previous counts, which still
// describe the prefix they were made over.
//
// Index memory is N/8 bytes per node that has been large, 4·R(R−1)/2 bytes of
// pair table for R such nodes, one to two bytes per posting of the others, and
// about 5 + 4k bytes per carried k-itemset, all reserved against
// Options.Count.Mem. When the rows, table or lists are refused the index is
// released and the refresh mines the sealed segments by scanning, as a batch
// mine under the same budget would; when only the counts are refused the next
// refresh counts every itemset in full, from the rows.
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
	// LargeItems is the number of large 1-items, whose rows the refresh
	// counted from, and IndexBytes what must fit for the index to exist:
	// RowBytes in the rows of every node that has been large, PairBytes in
	// the table of their pairs, GapBytes in the gap lists of the others.
	// CountBytes is what the counts carried to the next refresh hold beside
	// it (all zero when the refresh fell back to scanning). RowsPromoted is
	// how many nodes went from a gap list to a row this refresh.
	LargeItems                                int
	IndexBytes                                int64
	RowBytes, PairBytes, GapBytes, CountBytes int64
	RowsPromoted                              int
	// TailSets is how many itemsets the counting passes answered from the
	// transactions that arrived since the last refresh, FullSets how many
	// were counted over the whole log, RowWords the row words both read.
	// PairSets is how many 2-itemsets the passes read off the pair table
	// instead, which extend brought up to date over the new transactions
	// alone and which reads no row word. PromotedPairs is how many cells of
	// that table the promotions counted from rows; they are among FullSets,
	// and the words they read among RowWords.
	TailSets, FullSets, PairSets, PromotedPairs int
	RowWords                                    int64
	// Duration is the refresh wall time; the stage fields split it: the seal
	// of the log's active segment, the index append, stage 1 (row promotion
	// plus large-itemset mining) and negative.Timing's three parts of stages
	// 2–3. Walk is what candidate generation did in CandGen.
	Duration                  time.Duration
	Seal, IndexAppend, Stage1 time.Duration
	CandGen, Count, RuleGen   time.Duration
	Walk                      negative.WalkStats
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
	return &Miner{tax: tax, opt: opt, idx: newIndex(opt.Count.Mem, tax)}
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
	sealStart := time.Now()
	if err := log.Seal(); err != nil {
		return nil, err
	}
	seal := time.Since(sealStart)
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	views := log.SealedViews()
	st := RefreshStats{Segments: len(views), Seal: seal}
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
	var v *count.Index
	if err == nil {
		if v, err = m.idx.view(snap, apriori.MinCount(m.opt.MinSupport, st.N), m.opt.Count.Parallelism, &st); err == nil {
			defer v.Release() // counts recorded by a mine that does not finish
			db, st.LargeItems = v, v.Matrix().Items().Len()
		}
	}
	if errors.Is(err, govern.ErrOverBudget) {
		m.idx.drop() // no room for the index: mine the segments by scanning
		st.RowsPromoted = 0
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
	if v != nil {
		m.idx.keep(v.TakeCarried())
		tail, full, pairs, words := v.Tally()
		st.TailSets, st.PairSets, st.FullSets, st.RowWords = tail, pairs, st.FullSets+full, st.RowWords+words
		st.RowBytes, st.PairBytes, st.GapBytes, st.CountBytes = m.idx.rowBytes, m.idx.pairBytes, m.idx.gapBytes, m.idx.counts.Bytes()
		st.IndexBytes = st.RowBytes + st.PairBytes + st.GapBytes
	}
	t := res.Timing
	st.Stage1 = mineStart.Sub(start) - st.IndexAppend + t.Stage1
	st.CandGen, st.Count, st.RuleGen, st.Walk = t.CandGen, t.Count, t.RuleGen, res.Walk
	st.Duration = seal + time.Since(start)
	m.stats.Store(&st)
	return res, nil
}

package count

import (
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Indexed is a txdb.DB that carries a vertical index of itself under the
// ancestor extension of Taxonomy(): the 1-item counts Singletons would scan
// for, and the rows bitmat.FromDBTaxonomy would build for every item a
// counting pass can name (the large 1-items — level-wise candidates and the
// paper's negative candidates are built from nothing else). Passes declared
// under the same taxonomy (Options.Tax) are answered from the index: no scan,
// no matrix build, and Backend — a choice between ways of scanning — does not
// apply. Every other pass scans the database as usual, and so does every
// counting pass when Matrix() is nil: the rows did not fit the budget.
type Indexed interface {
	txdb.DB
	Taxonomy() *taxonomy.Taxonomy
	Singletons() *item.Counter
	Matrix() *bitmat.Matrix
}

// indexOf returns db's index when it answers passes declared under tax.
func indexOf(db txdb.DB, tax *taxonomy.Taxonomy) Indexed {
	if ix, ok := db.(Indexed); ok && tax != nil && ix.Taxonomy() == tax {
		return ix
	}
	return nil
}

// rowsOf returns the rows that answer db's counting passes declared under
// tax, or nil when db has to be scanned.
func rowsOf(db txdb.DB, tax *taxonomy.Taxonomy) *bitmat.Matrix {
	if ix := indexOf(db, tax); ix != nil {
		return ix.Matrix()
	}
	return nil
}

// Index is the Indexed every miner counts from, fed one of two ways: from
// posting lists kept across refreshes (internal/incr, through NewIndex) or
// from two scans of a database (BuildIndex).
type Index struct {
	txdb.DB
	tax     *taxonomy.Taxonomy
	singles *item.Counter
	rows    *bitmat.Matrix
	mem     *govern.Budget
	pass1   time.Duration
}

// NewIndex wraps db with its index under tax: the 1-item counts and the
// full-width closure rows of the large 1-items, which the caller has reserved
// against mem and Release gives back.
func NewIndex(db txdb.DB, tax *taxonomy.Taxonomy, singles *item.Counter, rows *bitmat.Matrix, mem *govern.Budget) *Index {
	return &Index{DB: db, tax: tax, singles: singles, rows: rows, mem: mem}
}

func (ix *Index) Taxonomy() *taxonomy.Taxonomy { return ix.tax }
func (ix *Index) Singletons() *item.Counter    { return ix.singles }
func (ix *Index) Matrix() *bitmat.Matrix       { return ix.rows }

// Pass1 is how long BuildIndex spent in its first scan (zero for NewIndex).
func (ix *Index) Pass1() time.Duration { return ix.pass1 }

// Release returns the reservation of the rows and of the pair table they may
// carry; the index must not count afterwards.
func (ix *Index) Release() {
	if ix.rows != nil {
		ix.mem.Release(ix.rows.Bytes() + ix.rows.PairBytes())
	}
}

// BuildIndex indexes db under tax with two scans, so that a level-wise mine
// makes no third, each sharded over Options.Parallelism workers where db is a
// txdb.Sharder: pass 1 is Singletons' scan, pass 2 fills closure rows for the
// items counted at least minCount times — all any later candidate can name —
// and counts every pair of rows a transaction sets into a table
// (bitmat.Matrix.CountPairs): all of C2, so level 2 ANDs no rows. Rows and
// table are reserved against opt.Mem until Release, the further workers'
// tables until the fill ends. It declines with (nil, nil), before scanning,
// when there is no taxonomy, when db is already Indexed under it, and under
// BackendHashTree, whose pass accounting is the paper's. When reserveWindow
// does not grant full-width rows the index is returned without them: pass 1
// is not repeated, counting passes scan in windows. When the budget, or
// maxWindowBytes over rows and tables together, grants the rows but not the
// tables, the rows carry none and level 2 is counted from rows like the rest.
func BuildIndex(db txdb.DB, tax *taxonomy.Taxonomy, minCount int, opt Options) (*Index, error) {
	if tax == nil || opt.Backend == BackendHashTree || indexOf(db, tax) != nil {
		return nil, nil
	}
	opt.Tax = tax
	start := time.Now()
	singles, err := Singletons(db, opt)
	if err != nil {
		return nil, err
	}
	var large []item.Item
	singles.Each(func(s item.Itemset, c int) {
		if c >= minCount {
			large = append(large, s[0])
		}
	})
	ix := NewIndex(db, tax, singles, nil, opt.Mem)
	ix.pass1 = time.Since(start)
	n := db.Count()
	width, err := reserveWindow(opt.Mem, n, len(large))
	if err != nil {
		return ix, nil // not even 64 transactions' rows: the passes will say so
	}
	if width < n {
		opt.Mem.Release(bitmat.EstimateBytes(width, len(large)))
		return ix, nil
	}
	ix.rows = bitmat.New(item.SortDedup(large), n)
	_, workers := shardWorkers(db, opt)
	tables := int64(workers) * bitmat.EstimatePairBytes(len(large))
	if ix.rows.Bytes()+tables <= maxWindowBytes && opt.Mem.Reserve(tables) == nil {
		ix.rows.CountPairs()
		// All but the table the rows keep are summed into it and gone.
		defer opt.Mem.Release(tables - ix.rows.PairBytes())
	}
	if err := ix.rows.FillWindows(db, tax, nil, workers, nil); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

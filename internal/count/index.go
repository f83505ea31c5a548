package count

import (
	"math"
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Indexed is a txdb.DB that carries a vertical index of itself under the
// ancestor extension of Taxonomy(): the 1-item counts Singletons would scan
// for (indexed by item id, like its result), and the rows
// bitmat.FromDBTaxonomy would build for every item a counting pass can name
// (the large 1-items — level-wise candidates and the paper's negative
// candidates are built from nothing else). Passes declared
// under the same taxonomy (Options.Tax) are answered from the index: no scan,
// no matrix build, and Backend — a choice between ways of scanning — does not
// apply. Every other pass scans the database as usual, and so does every
// counting pass when Matrix() is nil: the rows did not fit the budget.
//
// An index may carry more than rows, as long as Counts answers what
// Matrix().Counts would: a pair table the fill counted (BuildIndex) or its
// owner kept with the rows (NewIndex from internal/incr), or the counts an
// earlier mine made over a prefix of the same transactions (Carried).
type Indexed interface {
	txdb.DB
	Taxonomy() *taxonomy.Taxonomy
	Singletons() []int
	Matrix() *bitmat.Matrix
	// Counts is one counting pass over Matrix(), which must not be nil: the
	// support of every candidate, on up to workers goroutines.
	Counts(cands []item.Itemset, workers int) ([]int, error)
}

// indexOf returns db's index when it answers passes declared under tax.
func indexOf(db txdb.DB, tax *taxonomy.Taxonomy) Indexed {
	if ix, ok := db.(Indexed); ok && tax != nil && ix.Taxonomy() == tax {
		return ix
	}
	return nil
}

// rowsOf returns db's index when its rows answer the counting passes declared
// under tax, or nil when db has to be scanned.
func rowsOf(db txdb.DB, tax *taxonomy.Taxonomy) Indexed {
	if ix := indexOf(db, tax); ix != nil && ix.Matrix() != nil {
		return ix
	}
	return nil
}

// Carried is what an Index carries from one mine to the next over a database
// that only grows at its end: every itemset the counting passes counted, pass
// by pass and candidate by candidate in the order they came, with its support
// over the first N transactions. Support is a count over transactions, so the
// next mine owes such a set only the transactions past N. The arrays are flat
// and hold no pointers: the collector does not scan them and the candidates
// they were copied from are not kept alive. The zero value carries nothing.
type Carried struct {
	N      int
	passes []carriedPass
	bytes  int64
}

type carriedPass struct {
	items  []item.Item // the sets' items, one set after the other
	lens   []uint8     // items per set
	counts []int32
}

// Bytes is the size of c's arrays, which the Index that recorded them
// reserved.
func (c *Carried) Bytes() int64 { return c.bytes }

// Index is the Indexed every miner counts from, fed one of two ways: from
// rows kept across refreshes (internal/incr, through NewIndex) or from two
// scans of a database (BuildIndex).
type Index struct {
	txdb.DB
	tax     *taxonomy.Taxonomy
	singles []int
	rows    *bitmat.Matrix
	mem     *govern.Budget
	held    int64 // reserved against mem, for Release to give back
	pass1   time.Duration
	// prev is what the last mine over a prefix of DB counted and next what
	// this one has, pass by pass (nil once mem has refused it room); an index
	// that carries nothing has neither. The rest tallies the passes so far.
	prev, next                *Carried
	passes, tail, full, pairs int
	words                     int64
}

// NewIndex wraps db with its index under tax: the 1-item counts and the
// full-width closure rows of the large 1-items, which stay the caller's, as
// does their reservation. A prev that is not nil — the zero Carried before the
// first mine — makes the index carry counts: every pass looks its candidates
// up in prev and records them, reserved against mem, for TakeCarried.
func NewIndex(db txdb.DB, tax *taxonomy.Taxonomy, singles []int, rows *bitmat.Matrix, prev *Carried, mem *govern.Budget) *Index {
	ix := &Index{DB: db, tax: tax, singles: singles, rows: rows, mem: mem, prev: prev}
	if prev != nil {
		if prev.N > rows.N() {
			ix.prev = &Carried{} // not counted over a prefix of these rows
		}
		ix.next = &Carried{N: rows.N()}
	}
	return ix
}

func (ix *Index) Taxonomy() *taxonomy.Taxonomy { return ix.tax }
func (ix *Index) Singletons() []int            { return ix.singles }
func (ix *Index) Matrix() *bitmat.Matrix       { return ix.rows }

// Pass1 is how long BuildIndex spent in its first scan (zero for NewIndex).
func (ix *Index) Pass1() time.Duration { return ix.pass1 }

// Counts implements Indexed: Matrix().Counts, and with counts carried — the
// passes of one mine must then come one after the other — the candidates prev
// holds for this pass are owed only the transactions past prev.N, and all of
// them are recorded with their counts over all of DB. When the rows carry a
// pair table, which answers every 2-itemset without reading a row word, no
// 2-itemset is carried: the table is what grows with DB.
func (ix *Index) Counts(cands []item.Itemset, workers int) ([]int, error) {
	var prev []int32
	from := 0
	if ix.prev != nil {
		prev, from = ix.lookup(cands), ix.prev.N
	}
	totals, err := ix.rows.CountsFrom(cands, prev, from, workers)
	if err == nil {
		ix.record(cands, totals)
	}
	return totals, err
}

// lookup returns, indexed like cands, what prev carries for this pass: the
// count of every candidate the same pass of the last mine counted, -1 for any
// other. Both lists are in (length, lexicographic) order when they come from
// apriori.Gen or the negative candidate generator, so one merge finds them;
// it accepts equal sets only, which makes a list in another order, or another
// pass altogether, a list of misses — a full count, never a wrong one. A
// 2-itemset the pair table answers is not looked up, and tallied apart.
func (ix *Index) lookup(cands []item.Itemset) []int32 {
	var p carriedPass
	if ix.passes < len(ix.prev.passes) {
		p = ix.prev.passes[ix.passes]
	}
	ix.passes++
	prev := make([]int32, len(cands))
	words, table := ix.rows.Words(), ix.rows.HasPairs()
	j, at := 0, 0 // carried set j starts at p.items[at]
	for i, cand := range cands {
		prev[i] = -1
		if table && len(cand) == 2 {
			ix.pairs++
			continue
		}
		for j < len(p.lens) {
			cmp := len(cand) - int(p.lens[j])
			if cmp == 0 {
				cmp = cand.Compare(p.items[at : at+len(cand)])
			}
			if cmp == 0 {
				prev[i] = p.counts[j]
			}
			if cmp <= 0 {
				break
			}
			at += int(p.lens[j])
			j++
		}
		if prev[i] >= 0 {
			ix.tail++
			ix.words += int64(len(cand) * (words - ix.prev.N>>6))
		} else {
			ix.full++
			ix.words += int64(len(cand) * words)
		}
	}
	return prev
}

// record appends one pass to next, reserved against mem — or gives next up,
// when mem has no room for it or a candidate is too long for a uint8. The
// 2-itemsets a pair table answers are left out.
func (ix *Index) record(cands []item.Itemset, totals []int) {
	if ix.next == nil {
		return
	}
	table := ix.rows.HasPairs()
	items, sets, longest := 0, 0, 0
	for _, c := range cands {
		if table && len(c) == 2 {
			continue
		}
		items, sets = items+len(c), sets+1
		longest = max(longest, len(c))
	}
	size := 4*int64(items) + 5*int64(sets)
	if longest > math.MaxUint8 || ix.mem.Reserve(size) != nil {
		ix.mem.Release(ix.next.bytes)
		ix.held, ix.next = ix.held-ix.next.bytes, nil
		return
	}
	ix.held, ix.next.bytes = ix.held+size, ix.next.bytes+size
	p := carriedPass{items: make([]item.Item, 0, items), lens: make([]uint8, 0, sets), counts: make([]int32, 0, sets)}
	for i, c := range cands {
		if table && len(c) == 2 {
			continue
		}
		p.items = append(p.items, c...)
		p.lens, p.counts = append(p.lens, uint8(len(c))), append(p.counts, int32(totals[i]))
	}
	ix.next.passes = append(ix.next.passes, p)
}

// Tally says what the passes so far did with the counts carried in: itemsets
// answered from the transactions past prev.N, itemsets counted in full,
// 2-itemsets read off the pair table, and the row words the first two kinds
// read between them (the third reads none).
func (ix *Index) Tally() (tail, full, pairs int, words int64) {
	return ix.tail, ix.full, ix.pairs, ix.words
}

// TakeCarried ends a mine over an index that carries counts: it returns what
// the passes counted — to be handed to NewIndex once DB has grown — and with
// it the reservation of its Bytes(). It returns the zero Carried when the
// index carries nothing or the budget refused.
func (ix *Index) TakeCarried() *Carried {
	next := ix.next
	if next == nil {
		return &Carried{}
	}
	ix.held, ix.next = ix.held-next.bytes, nil
	return next
}

// Release returns what the index still has reserved — the rows and pair
// table BuildIndex built, counts recorded and not taken; the index must not
// count afterwards.
func (ix *Index) Release() {
	ix.mem.Release(ix.held)
	ix.held = 0
}

// BuildIndex indexes db under tax with two scans, so that a level-wise mine
// makes no third, each sharded over Options.Parallelism workers where db is a
// txdb.Sharder: pass 1 is Singletons' scan, each worker counting every node of
// the ancestor extension into its own stamped cells; pass 2 fills closure rows
// for the items counted at least minCount times — all any later candidate can
// name — and counts every pair of rows a transaction sets into a table
// (bitmat.Matrix.CountPairs): all of C2, which gen.Stepper reads L2 off
// (bitmat.Matrix.PairCounts) without a counting pass. Rows and
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
	var large item.Itemset
	for x, c := range singles {
		if c >= minCount {
			large = append(large, item.Item(x))
		}
	}
	ix := NewIndex(db, tax, singles, nil, nil, opt.Mem)
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
	ix.rows = bitmat.New(large, n)
	ix.held = ix.rows.Bytes()
	_, workers := shardWorkers(db, opt)
	tables := int64(workers) * bitmat.EstimatePairBytes(len(large))
	if ix.rows.Bytes()+tables <= maxWindowBytes && opt.Mem.Reserve(tables) == nil {
		ix.rows.CountPairs()
		ix.held += ix.rows.PairBytes()
		// All but the table the rows keep are summed into it and gone.
		defer opt.Mem.Release(tables - ix.rows.PairBytes())
	}
	if err := ix.rows.FillWindows(db, tax, nil, workers, nil); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

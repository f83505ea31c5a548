package incr

import (
	"sync"
	"sync/atomic"

	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// segKey identifies a sealed segment. The CRC rides along with the ID
// because IDs alone are not stable identities across every log history: a
// replication follower that adopts a primary's segments, or a log rebuilt in
// place, can present a recycled ID with different content.
type segKey struct {
	id  int64
	crc uint32
}

func segKeyOf(e seglog.SegmentEntry) segKey { return segKey{id: e.ID, crc: e.CRC} }

// index is the vertical index of the sealed log: for every taxonomy node,
// leaf and category alike, the positions (in log order) of the transactions
// whose ancestor extension contains it — see node for the two forms — the
// number of transactions holding each pair of rowed nodes, and the counts the
// last completed refresh made over them. Sealed segments are immutable and
// the log grows at its end, so the index only ever appends; whatever else
// happens to the log drops all of it at once (extend). Rows, gap lists, the
// pair table and counts are reserved against mem.
type index struct {
	mem     *govern.Budget
	tax     *taxonomy.Taxonomy
	covered []segKey    // the prefix of the sealed log the nodes cover
	n       int         // transactions covered; the next position
	nodes   []node      // by item id
	touched []item.Item // nodes with fresh positions
	// singles is every node's positions counted, by item id — the pass-1
	// counts the view hands the miner — kept from refresh to refresh.
	singles []int
	// rowed lists the nodes with rows by slot, in the order they were
	// promoted, and pairs is their triangular pair table: the cell
	// bitmat.TriCell(i, j) counts the transactions, of the n, that hold the
	// nodes of slots i and j — Agrawal–Srikant's pass-2 array, which extend
	// adds each new transaction to and a promotion adds a slot to.
	rowed []item.Item
	pairs []int32
	// counts is every itemset the last completed refresh counted, with its
	// support over the counts.N transactions there were then; it came with
	// its Bytes() reserved.
	counts *count.Carried
	// rowBytes, gapBytes and pairBytes are what the nodes and the table hold,
	// held what of it has been reserved (settle).
	rowBytes, gapBytes, pairBytes, held int64
}

// node is one taxonomy node's positions. A node that has never been large
// keeps them as uvarint gaps (bitmat.AppendGap) — it is below MinSup, so the
// typical gap is 1/MinSup or more and costs one or two bytes. The first
// refresh that finds it large decodes them, once, into a dense row, which
// extend from then on sets bits in and grows in place, whether the node stays
// large or not.
type node struct {
	row   []uint64 // bit p set: position p
	gaps  []byte   // until the node is promoted; row is nil till then
	next  int32    // one past the last position in gaps
	fresh int32    // positions since, not yet in singles
	slot  int32    // in the pair table, once row is not nil
}

// newIndex returns an index of nothing.
func newIndex(mem *govern.Budget, tax *taxonomy.Taxonomy) index {
	return index{mem: mem, tax: tax, counts: &count.Carried{}}
}

// drop empties the index and returns its reservations.
func (ix *index) drop() {
	ix.mem.Release(ix.held + ix.counts.Bytes())
	*ix = newIndex(ix.mem, ix.tax)
}

// settle brings the reservation for rows, gap lists and the pair table to
// what they hold.
func (ix *index) settle() error {
	want := ix.rowBytes + ix.gapBytes + ix.pairBytes
	if want > ix.held {
		if err := ix.mem.Reserve(want - ix.held); err != nil {
			return err
		}
	} else {
		ix.mem.Release(ix.held - want)
	}
	ix.held = want
	return nil
}

// add records position pos, the highest so far, for node x.
func (ix *index) add(x item.Item, pos int) {
	if int(x) >= len(ix.nodes) {
		ix.nodes = append(ix.nodes, make([]node, int(x)+1-len(ix.nodes))...)
		ix.singles = append(ix.singles, make([]int, int(x)+1-len(ix.singles))...)
	}
	nd := &ix.nodes[x]
	if nd.fresh == 0 {
		ix.touched = append(ix.touched, x)
	}
	nd.fresh++
	if nd.row == nil {
		had := cap(nd.gaps)
		nd.gaps = bitmat.AppendGap(nd.gaps, int(nd.next), pos)
		nd.next = int32(pos) + 1
		ix.gapBytes += int64(cap(nd.gaps) - had)
		return
	}
	ix.grow(nd, pos>>6+1)
	nd.row[pos>>6] |= 1 << uint(pos&63)
}

// grow lengthens nd's row to at least words words, in place when its capacity
// allows; append's growth keeps the copies amortised.
func (ix *index) grow(nd *node, words int) {
	if words <= len(nd.row) {
		return
	}
	had := cap(nd.row)
	nd.row = append(nd.row, make([]uint64, words-len(nd.row))...)
	ix.rowBytes += 8 * int64(cap(nd.row)-had)
}

// extend brings the index up to views by reading only the segments past the
// covered prefix. Any other history — a compaction, a recycled ID, a rebuilt
// log — drops the index, counts included, and re-reads the whole log; those
// reads are the refresh's OldSegmentScans. A failed read or a refused
// reservation leaves the index empty.
func (ix *index) extend(views []seglog.SegmentView, st *RefreshStats) error {
	prefix := len(ix.covered) <= len(views)
	for i := 0; prefix && i < len(ix.covered); i++ {
		prefix = ix.covered[i] == segKeyOf(views[i].Entry)
	}
	if !prefix {
		ix.drop()
	}
	var buf []item.Item
	var slots []int32
	for _, v := range views[len(ix.covered):] {
		err := v.DB.Scan(func(tx txdb.Transaction) error {
			buf, slots = ix.tax.ExtendInto(buf[:0], tx.Items), slots[:0]
			for _, x := range buf {
				ix.add(x, ix.n)
				if nd := &ix.nodes[x]; nd.row != nil {
					slots = append(slots, nd.slot)
				}
			}
			for i, a := range slots {
				for _, b := range slots[:i] {
					ix.pairs[bitmat.TriCell(a, b)]++
				}
			}
			ix.n++
			return nil
		})
		if err == nil {
			err = ix.settle()
		}
		if err != nil {
			ix.drop()
			return err
		}
		ix.covered = append(ix.covered, segKeyOf(v.Entry))
		st.NewSegments++
		if !prefix {
			st.OldSegmentScans++
		}
	}
	for _, x := range ix.touched {
		ix.singles[x] += int(ix.nodes[x].fresh)
		ix.nodes[x].fresh = 0
	}
	ix.touched = ix.touched[:0]
	return nil
}

// sealed is one SealedViews snapshot as a txdb.DB — unlike the live log, its
// Count and every Scan agree whatever is appended meanwhile. It counts the
// segment reads made through it.
type sealed struct {
	views []seglog.SegmentView
	n     int
	reads atomic.Int64
}

func (s *sealed) Count() int { return s.n }

func (s *sealed) Scan(fn func(txdb.Transaction) error) error {
	for _, v := range s.views {
		s.reads.Add(1)
		if err := v.DB.Scan(fn); err != nil {
			return err
		}
	}
	return nil
}

// view presents the index for one refresh over db (which it must cover) as
// the count.Indexed that answers every counting pass of the batch miner — db
// itself remains for whatever insists on scanning: pass 1 is the nodes'
// position counts, and the rows handed over, uncopied, are those of the nodes
// with at least minCount positions, so memory follows the large items, not
// vocabulary × N; with them goes the pair table, which answers level 2 and
// every other 2-itemset. A node large for the first time is promoted from its
// gap list here, and its pairs counted on up to workers goroutines. The index
// carries counts in and, through keep, out.
func (ix *index) view(db *sealed, minCount, workers int, st *RefreshStats) (*count.Index, error) {
	words := (ix.n + 63) / 64
	var large item.Itemset
	var rows [][]uint64
	for x, n := range ix.singles {
		if nd := &ix.nodes[x]; n >= minCount {
			ix.grow(nd, words)
			large, rows = append(large, item.Item(x)), append(rows, nd.row)
		}
	}
	m := bitmat.OverRows(large, rows, ix.n)
	from := int32(len(ix.rowed))
	slots := make([]int32, len(large))
	for r, x := range large {
		if nd := &ix.nodes[x]; nd.gaps != nil {
			m.SetGaps(x, nd.gaps)
			nd.gaps, ix.gapBytes = nil, ix.gapBytes-int64(cap(nd.gaps))
			nd.slot, ix.rowed = int32(len(ix.rowed)), append(ix.rowed, x)
			st.RowsPromoted++
		}
		slots[r] = ix.nodes[x].slot
	}
	cells, read := ix.countPairs(from, workers)
	if err := ix.settle(); err != nil {
		return nil, err
	}
	st.PromotedPairs, st.FullSets, st.RowWords = cells, cells, read
	m.ReadPairs(ix.pairs, slots)
	return count.NewIndex(db, ix.tax, ix.singles, m, ix.counts, ix.mem), nil
}

// countPairs adds the slots from on to the pair table: each promoted node's
// pairs with every rowed node before it, counted by AND + popcount over their
// rows — what a full count of the new large items' pairs costs, once — on up
// to workers goroutines, each taking every workers-th slot. It returns the
// cells it counted and the row words it read.
func (ix *index) countPairs(from int32, workers int) (cells int, read int64) {
	to := int32(len(ix.rowed))
	if from == to {
		return 0, 0
	}
	had := cap(ix.pairs)
	ix.pairs = append(ix.pairs, make([]int32, bitmat.TriCell(to, 0)-len(ix.pairs))...)
	ix.pairBytes += 4 * int64(cap(ix.pairs)-had)
	words := (ix.n + 63) / 64
	step := int32(min(max(workers, 1), int(to-from)))
	var wg sync.WaitGroup
	var total atomic.Int64
	for w := range step {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for i := from + w; i < to; i += step {
				a := ix.nodes[ix.rowed[i]].row[:words]
				row := ix.pairs[bitmat.TriCell(i, 0):][:i]
				for j := range i {
					// A row grows as its node gains positions: past its
					// length it holds none.
					b := ix.nodes[ix.rowed[j]].row
					k := min(len(b), words)
					row[j] = int32(bitmat.AndPopCount(a[:k], b))
					n += 2 * int64(k)
				}
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	return bitmat.TriCell(to, 0) - bitmat.TriCell(from, 0), total.Load()
}

// keep makes c, which a refresh that ran to its end counted over all ix.n
// transactions and reserved, the counts the next one starts from; the zero
// Carried — the budget refused them — makes the next one count in full.
func (ix *index) keep(c *count.Carried) {
	ix.mem.Release(ix.counts.Bytes())
	ix.counts = c
}

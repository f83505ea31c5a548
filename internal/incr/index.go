package incr

import (
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
// leaf and category alike, the ascending positions (in log order) of the
// transactions whose ancestor extension contains it. Sealed segments are
// immutable and the log grows at its end, so the index only ever appends.
// Its 4 bytes per posting are reserved against mem.
type index struct {
	mem     *govern.Budget
	tax     *taxonomy.Taxonomy
	covered []segKey   // the prefix of the sealed log the postings cover
	n       int        // transactions covered; the next position
	posts   [][]uint32 // by item id
	bytes   int64      // reserved
}

// drop empties the index and returns its reservation.
func (ix *index) drop() {
	ix.mem.Release(ix.bytes)
	*ix = index{mem: ix.mem, tax: ix.tax}
}

// extend brings the index up to views by reading only the segments past the
// covered prefix. Any other history — a compaction, a recycled ID, a rebuilt
// log — drops the index and re-reads the whole log; those reads are the
// refresh's OldSegmentScans. A failed read or a refused reservation leaves
// the index empty.
func (ix *index) extend(views []seglog.SegmentView, st *RefreshStats) error {
	prefix := len(ix.covered) <= len(views)
	for i := 0; prefix && i < len(ix.covered); i++ {
		prefix = ix.covered[i] == segKeyOf(views[i].Entry)
	}
	if !prefix {
		ix.drop()
	}
	var buf []item.Item
	for _, v := range views[len(ix.covered):] {
		var added int64
		err := v.DB.Scan(func(tx txdb.Transaction) error {
			buf = ix.tax.ExtendInto(buf[:0], tx.Items)
			for _, x := range buf {
				if int(x) >= len(ix.posts) {
					ix.posts = append(ix.posts, make([][]uint32, int(x)+1-len(ix.posts))...)
				}
				ix.posts[x] = append(ix.posts[x], uint32(ix.n))
			}
			added += 4 * int64(len(buf))
			ix.n++
			return nil
		})
		if err == nil {
			err = ix.mem.Reserve(added)
		}
		if err != nil {
			ix.drop()
			return err
		}
		ix.bytes += added
		ix.covered = append(ix.covered, segKeyOf(v.Entry))
		st.NewSegments++
		if !prefix {
			st.OldSegmentScans++
		}
	}
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

// view materialises the index for one refresh over db (which it must cover)
// as the count.Indexed that answers every counting pass of the batch miner —
// db itself remains for whatever insists on scanning: pass 1 is the
// posting-list lengths, and dense rows exist only for the items with at
// least minCount postings, so memory follows the postings of large items,
// not vocabulary × N. The rows are reserved against mem; the caller Releases
// the view when done with it.
func (ix *index) view(db *sealed, minCount int) (*count.Index, error) {
	singles := item.NewCounter()
	var large item.Itemset
	for x, p := range ix.posts {
		if len(p) > 0 {
			singles.Add(item.Itemset{item.Item(x)}, len(p))
		}
		if len(p) >= minCount {
			large = append(large, item.Item(x))
		}
	}
	if err := ix.mem.Reserve(bitmat.EstimateBytes(ix.n, large.Len())); err != nil {
		return nil, err
	}
	rows := bitmat.New(large, ix.n)
	for _, x := range large {
		rows.SetAll(x, ix.posts[x])
	}
	return count.NewIndex(db, ix.tax, singles, rows, ix.mem), nil
}

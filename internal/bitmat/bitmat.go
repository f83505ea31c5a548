// Package bitmat implements the vertical bitmap counting layout: for a set
// of items it materializes, in one database pass, a word-packed bitmap over
// transaction positions — bit i of item x's row is set iff transaction i
// (in scan order) supports x. Candidate support then becomes an AND +
// popcount loop over []uint64 rows instead of per-transaction subset
// probing, which is the Eclat/Partition-style vertical representation the
// paper's authors pioneered (Savasere–Omiecinski–Navathe, VLDB 1995).
//
// FromDBTaxonomy, the one-window case of FillWindows, sets bits from raw
// transactions and their taxonomy ancestors, materializing the ancestor
// closure directly: a category's row ends up equal to the OR of its
// children's rows (and, more precisely, of all its descendant leaves —
// including leaves too infrequent to have rows of their own), so Cumulate's
// transaction extension costs nothing at counting time.
//
// A matrix narrower than the database holds one window of transactions at a
// time (FillWindows); support is a count over transactions, so the windows'
// counts add up. A matrix as wide as the database can be filled by several
// workers, each scanning its own range of transactions into its own words of
// every row, and can count while it is filled every pair of rows a
// transaction sets (CountPairs, Agrawal–Srikant's pass-2 array), which
// PairCounts reads back pair by pair without touching a row; a caller that
// keeps rows can keep such a table beside them and hand both over (OverRows,
// ReadPairs). For the same reason a caller that knows a candidate's support
// over the first positions of rows that have since grown at their end asks
// only for the rest (SupportFrom, CountsFrom). A filled Matrix is safe for concurrent readers; Counts shards
// candidates across workers, each with its own scratch row.
package bitmat

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// Matrix is a set of per-item bitmaps over transaction positions, stored
// row-major in one contiguous word slice — or, for OverRows, in rows its
// caller keeps.
type Matrix struct {
	n     int // transactions (bits per row)
	words int // words per row: ceil(n/64)
	items item.Itemset
	rowOf []int32    // by item id: its row number, -1 for none (see rowNum)
	bits  []uint64   // len = len(items)*words
	kept  [][]uint64 // OverRows: row r is kept[r][:words], bits is nil
	// pairs, when the matrix carries a table, counts 2-itemsets in one of two
	// layouts. Without slots it is the table the fill counts into
	// (CountPairs): pairs[a*len(items)+b] + pairs[b*len(items)+a]
	// transactions set both row a and row b. With slots it is a triangular
	// table its caller keeps (ReadPairs): rows a and b at pairs[TriCell(
	// slots[a], slots[b])].
	pairs, slots []int32
}

// New allocates an all-zero matrix with one row per item over n
// transactions.
func New(items item.Itemset, n int) *Matrix {
	m := over(items, n)
	m.bits = make([]uint64, len(m.items)*m.words)
	return m
}

// over returns a matrix over n transactions with a row for each of items, and
// no storage for them. Rows are found through a dense row-of table by item id
// when it costs no more than the rows it indexes — a mine's matrix of large
// items over a taxonomy's ids — or than the fill that walks the taxonomy's
// ids (closure); a matrix whose ids spread far wider than its rows and that
// is set some other way (a snapshot's few rule items over a whole
// vocabulary) keeps none.
func over(items item.Itemset, n int) *Matrix {
	m := &Matrix{n: n, words: (n + 63) / 64, items: items.Clone()}
	if k := len(m.items); k > 0 && 4*int64(m.items[k-1]+1) <= m.Bytes() {
		m.dense()
	}
	return m
}

// dense gives m its row-of table, unless an item is negative.
func (m *Matrix) dense() {
	if len(m.items) == 0 || m.items[0] < 0 {
		return
	}
	m.rowOf = make([]int32, m.items[len(m.items)-1]+1)
	for i := range m.rowOf {
		m.rowOf[i] = -1
	}
	for r, x := range m.items {
		m.rowOf[x] = int32(r)
	}
}

// rowNum returns item x's row number, or -1 if x has none: one load from the
// row-of table, or a binary search of the sorted items when there is none.
func (m *Matrix) rowNum(x item.Item) int32 {
	if m.rowOf == nil {
		if r, ok := slices.BinarySearch(m.items, x); ok {
			return int32(r)
		}
		return -1
	}
	if x < 0 || int(x) >= len(m.rowOf) {
		return -1
	}
	return m.rowOf[x]
}

// OverRows returns a matrix over n transactions whose rows the caller keeps:
// rows[i] is items[i]'s bitmap, at least ⌈n/64⌉ words long (it may have been
// grown ahead; words past that are not read) with no bit set at or past
// position n. Nothing is copied: the matrix is for counting, and for SetGaps
// into rows still empty (Set, FillWindows and CountPairs are not for it), and
// is good for as long as the caller leaves those first words alone.
func OverRows(items item.Itemset, rows [][]uint64, n int) *Matrix {
	m := over(items, n)
	m.kept = rows
	return m
}

// N returns the number of transactions (bits per row).
func (m *Matrix) N() int { return m.n }

// Words returns the number of 64-bit words per row.
func (m *Matrix) Words() int { return m.words }

// Items returns the sorted items that have rows (shared slice).
func (m *Matrix) Items() item.Itemset { return m.items }

// Bytes returns the size of the bit storage in bytes.
func (m *Matrix) Bytes() int64 { return EstimateBytes(m.n, len(m.items)) }

// EstimateBytes returns the bit-storage size of a matrix over nTx
// transactions and nItems rows, for memory budgeting.
func EstimateBytes(nTx, nItems int) int64 {
	return int64(nItems) * int64((nTx+63)/64) * 8
}

// EstimatePairBytes returns the size of the pair table of a matrix with
// nItems rows, for memory budgeting; a parallel fill holds one per worker.
func EstimatePairBytes(nItems int) int64 { return int64(nItems) * int64(nItems) * 4 }

// PairBytes returns the size of the pair table m carries, 0 for none.
func (m *Matrix) PairBytes() int64 { return int64(len(m.pairs)) * 4 }

// HasPairs reports whether m carries a pair table, which answers every
// 2-itemset of its rows (CountPairs, ReadPairs).
func (m *Matrix) HasPairs() bool { return m.pairs != nil }

// TriCell returns the cell of the pair of slots a ≠ b in a triangular pair
// table: slot i's pairs with slots 0…i-1 are cells i(i-1)/2 … i(i+1)/2-1, so
// a table over s slots is s(s-1)/2 cells and grows by appending a slot.
func TriCell(a, b int32) int {
	if a < b {
		a, b = b, a
	}
	return int(a)*int(a-1)/2 + int(b)
}

// ReadPairs makes m, from OverRows, carry a triangular pair table its caller
// keeps: tri[TriCell(slots[a], slots[b])] transactions set both row a and row
// b, for every pair of rows a ≠ b. Support and PairCounts then answer
// 2-itemsets from it as they do from a table the fill counted.
func (m *Matrix) ReadPairs(tri, slots []int32) {
	m.pairs, m.slots = tri, slots
	if m.pairs == nil {
		m.pairs = []int32{}
	}
}

// pair returns the pair table's count of rows a ≠ b.
func (m *Matrix) pair(a, b int32) int {
	if m.slots != nil {
		return int(m.pairs[TriCell(m.slots[a], m.slots[b])])
	}
	n := int32(len(m.items))
	return int(m.pairs[a*n+b] + m.pairs[b*n+a])
}

// CountPairs makes m, still empty and as wide as the database it will be
// filled from, carry a pair table: FillWindows then counts, transaction by
// transaction, every pair of rows it sets, and Support answers a 2-itemset
// from the table instead of ANDing two rows. Counts are int32: N() must not
// exceed math.MaxInt32.
func (m *Matrix) CountPairs() { m.pairs = make([]int32, len(m.items)*len(m.items)) }

// PairCounts calls fn for every pair of rows a < b, in lexicographic order,
// with the number of transactions that set both, read from the pair table
// the fill counted or the caller keeps — no row is read. It reports false,
// calling fn for none, when m carries no table (neither CountPairs nor
// ReadPairs was called: the budget declined it, the rows were set some other
// way or over a narrower window).
func (m *Matrix) PairCounts(fn func(a, b item.Item, n int)) bool {
	if m.pairs == nil {
		return false
	}
	for i, a := range m.items {
		for j := i + 1; j < len(m.items); j++ {
			fn(a, m.items[j], m.pair(int32(i), int32(j)))
		}
	}
	return true
}

// Row returns item x's bitmap (shared slice; callers must not modify), or
// nil if x has no row.
func (m *Matrix) Row(x item.Item) []uint64 {
	r := m.rowNum(x)
	if r < 0 {
		return nil
	}
	return m.row(r)
}

func (m *Matrix) row(r int32) []uint64 {
	if m.kept != nil {
		return m.kept[r][:m.words]
	}
	return m.bits[int(r)*m.words : (int(r)+1)*m.words]
}

// Set marks position pos in item x's row and reports whether x has a row.
// It is the position-by-position builder used by callers that assemble a
// matrix from something other than a database scan — e.g. the serving
// snapshot, which builds rule posting lists by setting bit (x, ruleID) for
// every rule mentioning x.
func (m *Matrix) Set(x item.Item, pos int) bool {
	r := m.rowNum(x)
	if r < 0 {
		return false
	}
	m.bits[int(r)*m.words+pos>>6] |= 1 << uint(pos&63)
	return true
}

// AppendGap appends pos to gaps, an ascending position list kept as uvarint
// gaps — each position's distance from next, one past the position before it
// (0 for the first). A list whose positions lie 1/s apart costs one byte a
// position while s > 1/128 and two while s > 1/16384.
func AppendGap(gaps []byte, next, pos int) []byte {
	return binary.AppendUvarint(gaps, uint64(pos-next))
}

// SetGaps marks every position of the gap list gaps (see AppendGap) in item
// x's row — Set for a whole list, with one row lookup — and reports whether x
// has a row.
func (m *Matrix) SetGaps(x item.Item, gaps []byte) bool {
	row := m.Row(x)
	if row == nil {
		return false
	}
	for pos := 0; len(gaps) > 0; pos++ {
		gap, k := binary.Uvarint(gaps)
		if k <= 0 {
			panic("bitmat: malformed gap list")
		}
		gaps, pos = gaps[k:], pos+int(gap)
		row[pos>>6] |= 1 << uint(pos&63)
	}
	return true
}

// NextSet returns the position of the first set bit at or after from in
// row, or -1 when no further bit is set. Iterating
//
//	for i := NextSet(row, 0); i >= 0; i = NextSet(row, i+1) { ... }
//
// visits the set positions in ascending order — the rank-select walk query
// layers use to enumerate a bitmap posting list in presorted order.
func NextSet(row []uint64, from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(row) {
		return -1
	}
	// Mask off bits below from in the first word, then scan whole words.
	if word := row[w] >> uint(from&63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for w++; w < len(row); w++ {
		if row[w] != 0 {
			return w<<6 + bits.TrailingZeros64(row[w])
		}
	}
	return -1
}

// Transform maps a transaction's itemset before bits are set, appending the
// result into dst (a reusable buffer). It mirrors count.TransformInto
// structurally so the two packages stay decoupled.
type Transform func(dst []item.Item, s item.Itemset) item.Itemset

// FillWindows fills m from one pass over db, N() transactions at a time:
// the i-th transaction scanned sets position i mod N() in the row of each of
// its items that has one — under a taxonomy its items and all their
// ancestors (transform is not consulted), otherwise the items transform (nil
// = identity) maps it to — and, when m carries a pair table (CountPairs),
// counts every pair of rows it set. Whenever a window is full and db has
// more, full is called and the rows are cleared for the next window; the
// last window — the only one when N() covers db.Count() — is left in m for
// the caller. Support is a count over transactions, so candidate counts add
// up across windows.
//
// One worker makes the pass unless workers ≥ 2, db is a txdb.Sharder and m
// is as wide as db: then worker i fills the positions txdb.ShardRange gives
// shard i — whole words of every row, which no other worker writes — and
// counts pairs into a table of its own, summed into m's at the end. A scan,
// or a shard, that yields more or fewer transactions than db.Count() promised
// it is an error.
func (m *Matrix) FillWindows(db txdb.DB, tax *taxonomy.Taxonomy, transform Transform, workers int, full func() error) error {
	n := db.Count()
	start, rows := m.closure(tax)
	// fill is the per-transaction body: scan's transactions take positions
	// lo, lo+1, … (mod N()), of which there must be hi-lo.
	fill := func(scan func(func(txdb.Transaction) error) error, lo, hi int, pairs []int32) error {
		buf := make([]item.Item, 0, 64)
		// When pairs are counted, set[:k] are the rows the current transaction
		// has set: each row on its items' lists is written at set[k] and kept
		// only if its bit was still clear — the bit is its own last-seen
		// stamp, so an ancestor reached through two items counts once,
		// without a branch.
		set, one := make([]int32, len(m.items)+1), make([]int32, 1)
		seen, pos := lo, lo
		err := scan(func(tx txdb.Transaction) error {
			if seen == hi {
				return fmt.Errorf("bitmat: scan produced more than the %d transactions Count() = %d promised", hi-lo, n)
			}
			if pos == m.n {
				if err := full(); err != nil {
					return err
				}
				clear(m.bits)
				pos = 0
			}
			s := tx.Items
			if tax == nil && transform != nil {
				s = transform(buf[:0], s)
				buf = s[:0]
			}
			word, shift, k := pos>>6, uint(pos&63), 0
			for _, x := range s {
				var list []int32 // the rows x sets
				if x >= 0 && int(x) < len(start)-1 {
					list = rows[start[x]:start[x+1]]
				} else if r := m.rowNum(x); r >= 0 {
					list = append(one[:0], r)
				}
				for _, r := range list {
					w := &m.bits[int(r)*m.words+word]
					if pairs != nil {
						set[k] = r
						k += int(^*w >> shift & 1)
					}
					*w |= 1 << shift
				}
			}
			for i, a := range set[:k] {
				cells := pairs[int(a)*len(m.items):][:len(m.items)]
				for _, b := range set[i+1 : k] {
					cells[b]++
				}
			}
			seen++
			pos++
			return nil
		})
		if err == nil && seen != hi {
			err = fmt.Errorf("bitmat: scan produced %d of the %d transactions Count() = %d promised", seen-lo, hi-lo, n)
		}
		return err
	}
	sharder, ok := db.(txdb.Sharder)
	if workers < 2 || !ok || m.n < n {
		return fill(db.Scan, 0, n, m.pairs)
	}
	tables := make([][]int32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range tables {
		tables[w] = m.pairs
		if w > 0 && m.pairs != nil {
			tables[w] = make([]int32, len(m.pairs))
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := txdb.ShardRange(n, w, workers)
			errs[w] = fill(func(fn func(txdb.Transaction) error) error { return sharder.ScanShard(w, workers, fn) }, lo, hi, tables[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("bitmat: worker %d: %w", w, err)
		}
		if w > 0 {
			for i, c := range tables[w] {
				m.pairs[i] += c
			}
		}
	}
	return nil
}

// closure resolves, once per fill, every node x of tax to the numbers
// rows[start[x]:start[x+1]] of the rows a transaction holding x sets: x's own
// and its ancestors', nearest first, where they have rows, through the dense
// row-of table, which it gives m if m has none. The closure is taken from the
// taxonomy rather than OR-composed from child rows so that descendant leaves
// without rows of their own (small 1-itemsets pruned from candidate
// generation) still contribute to their ancestors' support, as the paper
// requires. A nil taxonomy resolves nothing.
func (m *Matrix) closure(tax *taxonomy.Taxonomy) (start, rows []int32) {
	if tax == nil {
		return nil, nil
	}
	if m.rowOf == nil {
		m.dense()
	}
	start = make([]int32, tax.Size()+1)
	add := func(x item.Item) {
		if r := m.rowNum(x); r >= 0 {
			rows = append(rows, r)
		}
	}
	for x := 0; x < tax.Size(); x++ {
		add(item.Item(x))
		for _, a := range tax.AncestorsOf(item.Item(x)) {
			add(a)
		}
		start[x+1] = int32(len(rows))
	}
	return start, rows
}

// FromDBTaxonomy builds rows for items over one pass of db's raw
// transactions, setting each item's bit and the bits of all its taxonomy
// ancestors — the ancestor-closure build, FillWindows with one window. A
// category row therefore equals the OR of its children's rows, including
// children too infrequent to have rows of their own.
func FromDBTaxonomy(db txdb.DB, tax *taxonomy.Taxonomy, items item.Itemset) (*Matrix, error) {
	return fromDB(db, tax, items, nil)
}

func fromDB(db txdb.DB, tax *taxonomy.Taxonomy, items item.Itemset, transform Transform) (*Matrix, error) {
	m := New(items, db.Count())
	if err := m.FillWindows(db, tax, transform, 1, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// And writes a AND b into dst. All three must have equal length.
func And(dst, a, b []uint64) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i := range a {
		dst[i] = a[i] & b[i]
	}
}

// AndInto folds src into dst: dst &= src.
func AndInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// OrInto folds src into dst: dst |= src.
func OrInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] |= src[i]
	}
}

// PopCount returns the number of set bits in a.
func PopCount(a []uint64) int {
	n := 0
	for _, w := range a {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndPopCount returns the number of set bits in a AND b without
// materializing the intersection.
func AndPopCount(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// Support returns the number of transactions containing every item of c —
// the popcount of the AND of c's rows; for a 2-itemset the pair table when m
// carries one (CountPairs, ReadPairs), a pass over both rows when it does not
// (rows set position by position, a window narrower than the database).
// scratch is a reusable row of at least m.Words() words (nil allocates one);
// it is only written for candidates of three or more items. An item without
// a row is an error: the matrix was built over the wrong item set.
func (m *Matrix) Support(c item.Itemset, scratch []uint64) (int, error) {
	switch c.Len() {
	case 0:
		return m.n, nil
	case 1:
		r := m.Row(c[0])
		if r == nil {
			return 0, fmt.Errorf("bitmat: no row for item %d", c[0])
		}
		return PopCount(r), nil
	case 2:
		a, b := m.rowNum(c[0]), m.rowNum(c[1])
		if a < 0 || b < 0 {
			return 0, fmt.Errorf("bitmat: no row for item in %v", c)
		}
		if m.pairs != nil {
			return m.pair(a, b), nil
		}
		return AndPopCount(m.row(a), m.row(b)), nil
	}
	if scratch == nil {
		scratch = make([]uint64, m.words)
	}
	scratch = scratch[:m.words]
	a, b := m.Row(c[0]), m.Row(c[1])
	if a == nil || b == nil {
		return 0, fmt.Errorf("bitmat: no row for item in %v", c)
	}
	And(scratch, a, b)
	for _, x := range c[2:] {
		r := m.Row(x)
		if r == nil {
			return 0, fmt.Errorf("bitmat: no row for item %d", x)
		}
		AndInto(scratch, r)
	}
	return PopCount(scratch), nil
}

// SupportFrom returns the number of transactions at positions from…N()-1
// that contain every item of c: Support over the rows' tail, the first word
// masked below from, which reads ⌈N()/64⌉ - from/64 words of each row however
// long the rows are. It consults no pair table and needs no scratch row.
func (m *Matrix) SupportFrom(c item.Itemset, from int) (int, error) {
	var buf [8][]uint64
	rows := buf[:0]
	for _, x := range c {
		r := m.Row(x)
		if r == nil {
			return 0, fmt.Errorf("bitmat: no row for item %d", x)
		}
		rows = append(rows, r)
	}
	from = max(from, 0)
	if len(rows) == 0 {
		return max(m.n-from, 0), nil
	}
	n, mask := 0, ^uint64(0)<<uint(from&63)
	for w := from >> 6; w < m.words; w++ {
		and := mask
		for _, r := range rows {
			and &= r[w]
		}
		n += bits.OnesCount64(and)
		mask = ^uint64(0)
	}
	return n, nil
}

// Counts returns the support count of every candidate, sharding candidates
// across workers (values < 2 count sequentially). The matrix is read-only
// during counting, so workers share it without synchronization; each keeps
// its own scratch row and writes disjoint result slots.
func (m *Matrix) Counts(cands []item.Itemset, workers int) ([]int, error) {
	return m.CountsFrom(cands, nil, 0, workers)
}

// CountsFrom is Counts for a caller that has counted some of the candidates
// before, over the first from positions of rows that have only grown at their
// end since: prev, when not nil, is indexed like cands, and candidate i with
// prev[i] ≥ 0 is answered as prev[i] + SupportFrom(from), every other one in
// full, as Counts answers it. A 2-itemset is read off the pair table when m
// carries one, whatever prev says: that reads no row word at all.
//
// Each worker counts a contiguous run of cands and keeps the ANDs of the
// prefixes of the last candidate it counted in full (a prefixAnd), so that
// candidates sorted as apriori-gen and the negative generator hand them over
// — consecutive k-itemsets sharing their first k-1 members — cost one
// AND+popcount each.
func (m *Matrix) CountsFrom(cands []item.Itemset, prev []int32, from, workers int) ([]int, error) {
	out := make([]int, len(cands))
	if len(cands) == 0 {
		return out, nil
	}
	// count fills out[lo:hi] with a prefixAnd of its own.
	count := func(lo, hi int) error {
		p := m.newPrefixAnd(cands[lo:hi])
		for i := lo; i < hi; i++ {
			var err error
			if prev == nil || prev[i] < 0 || len(cands[i]) == 2 && m.pairs != nil {
				out[i], err = p.support(cands[i])
			} else if out[i], err = m.SupportFrom(cands[i], from); err == nil {
				out[i] += int(prev[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 2 {
		if err := count(0, len(cands)); err != nil {
			return nil, err
		}
		return out, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (len(cands) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(cands))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = count(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefixAnd answers Support for one candidate after another through a stack
// of prefix ANDs: and[d] is the AND of the rows of the first d+2 members of
// the last candidate of three or more it counted, so a candidate sharing its
// first p members with that one re-ANDs only from member p on, and one that
// shares all but its last costs one AND+popcount.
type prefixAnd struct {
	m      *Matrix
	prefix []item.Item // the members the stack holds the ANDs of
	and    [][]uint64  // carved from one slab
}

// newPrefixAnd returns a prefixAnd with room for the longest of cands: one
// slab of rows, one of members.
func (m *Matrix) newPrefixAnd(cands []item.Itemset) *prefixAnd {
	longest := 0
	for _, c := range cands {
		longest = max(longest, len(c))
	}
	p := &prefixAnd{m: m, prefix: make([]item.Item, 0, longest)}
	if depth := longest - 2; depth > 0 {
		slab := make([]uint64, depth*m.words)
		p.and = make([][]uint64, depth)
		for d := range p.and {
			p.and[d] = slab[d*m.words : (d+1)*m.words : (d+1)*m.words]
		}
	}
	return p
}

// support is m.Support(c), through the stack for three members or more.
func (p *prefixAnd) support(c item.Itemset) (int, error) {
	k := len(c)
	if k < 3 {
		return p.m.Support(c, nil)
	}
	shared := 0
	for shared < len(p.prefix) && shared < k-1 && p.prefix[shared] == c[shared] {
		shared++
	}
	// and[d] holds for d ≤ shared-2; the members past shared are new.
	p.prefix = p.prefix[:shared]
	for d := max(shared-1, 0); d <= k-3; d++ {
		r := p.m.Row(c[d+1])
		if r == nil {
			return 0, fmt.Errorf("bitmat: no row for item %d", c[d+1])
		}
		if d == 0 {
			a := p.m.Row(c[0])
			if a == nil {
				return 0, fmt.Errorf("bitmat: no row for item %d", c[0])
			}
			And(p.and[0], a, r)
		} else {
			And(p.and[d], p.and[d-1], r)
		}
	}
	p.prefix = append(p.prefix[:shared], c[shared:k-1]...)
	last := p.m.Row(c[k-1])
	if last == nil {
		return 0, fmt.Errorf("bitmat: no row for item %d", c[k-1])
	}
	return AndPopCount(p.and[k-3], last), nil
}

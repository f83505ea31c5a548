// Package txdb implements the transaction database every mining pass runs
// over: an in-memory store, a compact binary on-disk format with streaming
// reader/writer, and a whitespace "basket" text format for human-authored
// data.
//
// All algorithms access data through the DB interface, so they behave
// identically over memory and disk. The Instrumented wrapper counts scan
// passes, which lets tests prove the paper's pass-complexity claims (Naive =
// 2n passes, Improved = n+1) and the indexed mine's two.
package txdb

import (
	"fmt"

	"negmine/internal/fault"
	"negmine/internal/item"
)

// PointScan is the failpoint evaluated once per transaction by every scan
// loop in the package (memory- and disk-resident). Arming it with an error
// models a torn mid-scan read; with sleep, a stalling device. The check is
// hoisted behind fault.Active so production scans stay branch-free.
const PointScan = "txdb.scan"

// Transaction is one customer basket: a unique TID and a sorted set of
// (leaf) items.
type Transaction struct {
	TID   int64
	Items item.Itemset
}

// DB is a scannable transaction database. Scan streams every transaction in
// storage order; returning a non-nil error from fn aborts the scan and is
// propagated. Count is the number of transactions.
type DB interface {
	Scan(fn func(Transaction) error) error
	Count() int
}

// Sharder is implemented by databases that support partitioned scans:
// ScanShard(i, n) visits, in scan order, the transactions at positions
// [lo, hi) = ShardRange(Count(), i, n) of Scan's sequence — so the shards,
// taken in shard order, concatenate to Scan, and a worker per shard knows
// which positions it holds. It powers parallel support counting and the
// parallel row fill.
type Sharder interface {
	ScanShard(shard, of int, fn func(Transaction) error) error
}

// ShardRange is the one partition rule of every Sharder: shard i of `of`
// over n transactions holds positions [lo, hi), contiguous ranges of equal
// length — a whole number of 64-transaction words, so that two shards never
// share a word of a bitmap row — of which the last may be short and further
// ones empty (lo == hi == n; every other lo is a multiple of 64).
func ShardRange(n, shard, of int) (lo, hi int) {
	per := ((n+63)/64 + of - 1) / of * 64
	return min(shard*per, n), min((shard+1)*per, n)
}

// MemDB is an in-memory transaction database.
type MemDB struct {
	txs []Transaction
}

// NewMemDB builds a database from transactions, validating itemsets and
// TID uniqueness is NOT enforced (callers own TID assignment).
func NewMemDB(txs []Transaction) (*MemDB, error) {
	for i, tx := range txs {
		if err := tx.Items.Validate(); err != nil {
			return nil, fmt.Errorf("txdb: transaction %d (tid %d): %w", i, tx.TID, err)
		}
	}
	return &MemDB{txs: txs}, nil
}

// FromItemsets builds a MemDB assigning sequential TIDs; each input slice is
// normalized (sorted, deduplicated). Convenient for tests and examples.
func FromItemsets(sets ...[]item.Item) *MemDB {
	txs := make([]Transaction, len(sets))
	for i, s := range sets {
		txs[i] = Transaction{TID: int64(i + 1), Items: item.New(s...)}
	}
	return &MemDB{txs: txs}
}

// Append adds a transaction (no validation; intended for generators that
// produce canonical itemsets).
func (m *MemDB) Append(tx Transaction) { m.txs = append(m.txs, tx) }

// Count returns the number of transactions.
func (m *MemDB) Count() int { return len(m.txs) }

// Scan visits every transaction in insertion order.
func (m *MemDB) Scan(fn func(Transaction) error) error {
	faulty := fault.Active()
	for _, tx := range m.txs {
		if faulty {
			if err := fault.Hit(PointScan); err != nil {
				return fmt.Errorf("txdb: scan at tid %d: %w", tx.TID, err)
			}
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// ScanShard visits, in insertion order, the transactions at the positions
// ShardRange gives the shard.
func (m *MemDB) ScanShard(shard, of int, fn func(Transaction) error) error {
	if of <= 0 || shard < 0 || shard >= of {
		return fmt.Errorf("txdb: bad shard %d/%d", shard, of)
	}
	faulty := fault.Active()
	lo, hi := ShardRange(len(m.txs), shard, of)
	for _, tx := range m.txs[lo:hi] {
		if faulty {
			if err := fault.Hit(PointScan); err != nil {
				return fmt.Errorf("txdb: shard %d/%d scan at tid %d: %w", shard, of, tx.TID, err)
			}
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// Transactions exposes the underlying slice (shared; callers must not
// modify). Used by the data generator's tests.
func (m *MemDB) Transactions() []Transaction { return m.txs }

// Stats summarizes a database: transaction count, item occurrences, average
// basket length, and the maximum item id (for sizing count arrays).
type Stats struct {
	Transactions int
	TotalItems   int
	AvgLen       float64
	MaxItem      item.Item
}

// Collect computes Stats with a single scan.
func Collect(db DB) (Stats, error) {
	var s Stats
	s.MaxItem = item.None
	err := db.Scan(func(tx Transaction) error {
		s.Transactions++
		s.TotalItems += tx.Items.Len()
		if n := tx.Items.Len(); n > 0 && tx.Items[n-1] > s.MaxItem {
			s.MaxItem = tx.Items[n-1]
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	if s.Transactions > 0 {
		s.AvgLen = float64(s.TotalItems) / float64(s.Transactions)
	}
	return s, nil
}

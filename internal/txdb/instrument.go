package txdb

import "sync/atomic"

// Instrumented wraps a DB and counts completed scan passes. The negative
// mining tests use it to verify the paper's pass-complexity claims on the
// hash tree — the naive algorithm makes 2n passes, the improved one n+1
// (§2.2) — and that a mine on the bitmap engine, which indexes the database
// first (count.BuildIndex), makes two.
type Instrumented struct {
	DB
	passes     atomic.Int64
	shardScans atomic.Int64
}

// Instrument wraps db.
func Instrument(db DB) *Instrumented { return &Instrumented{DB: db} }

// Scan delegates to the wrapped DB and counts the pass.
func (i *Instrumented) Scan(fn func(Transaction) error) error {
	i.passes.Add(1)
	return i.DB.Scan(fn)
}

// ScanShard delegates if the wrapped DB shards; a full set of shards counts
// as a fractional pass each (of shards of 1/of), so parallel counting over n
// shards still registers as one logical pass in Passes (rounded down).
func (i *Instrumented) ScanShard(shard, of int, fn func(Transaction) error) error {
	s, ok := i.DB.(Sharder)
	if !ok {
		if of == 1 && shard == 0 {
			return i.Scan(fn)
		}
		return errUnsupportedShard
	}
	i.shardScans.Add(1)
	return s.ScanShard(shard, of, fn)
}

var errUnsupportedShard = errShard{}

type errShard struct{}

func (errShard) Error() string { return "txdb: underlying DB does not support sharded scans" }

// Passes returns the number of full Scan passes so far.
func (i *Instrumented) Passes() int { return int(i.passes.Load()) }

// ShardScans returns the number of ScanShard calls so far.
func (i *Instrumented) ShardScans() int { return int(i.shardScans.Load()) }

// Reset zeroes the counters.
func (i *Instrumented) Reset() { i.passes.Store(0); i.shardScans.Store(0) }

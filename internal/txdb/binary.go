package txdb

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
	"negmine/internal/item"
)

// Binary format
//
//	header:  magic "NMTX" | uvarint version (1) | uvarint txCount
//	record:  uvarint tidDelta (from previous TID, first from 0)
//	         uvarint itemCount
//	         itemCount × uvarint itemDelta (+1 from previous item, first raw)
//
// Delta coding exploits sorted itemsets and mostly-increasing TIDs; typical
// retail baskets encode in ~1.2 bytes per item.

const (
	magic         = "NMTX"
	formatVersion = 1
)

// headerSize is the fixed byte length of the version-1 header: the magic,
// one uvarint byte for the version, and the 8-byte fixed-width count.
const headerSize = len(magic) + 1 + 8

// WriteFile writes all of db to path in the binary format, atomically: a
// write that fails midway leaves path as it was, or absent. A ".gz" suffix
// selects transparent gzip compression.
func WriteFile(path string, db DB) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		if !isGzipPath(path) {
			return writeAll(w, db)
		}
		gz := gzip.NewWriter(w)
		if err := writeAll(gz, db); err != nil {
			return err
		}
		return gz.Close()
	})
}

// FileDB is a disk-resident transaction database in the binary format. Every
// Scan streams the file from the start; multiple concurrent scans each use
// their own *os.File via ScanShard.
type FileDB struct {
	path  string
	count int
}

// OpenFile validates the header of path and returns a FileDB. A ".gz"
// suffix selects transparent gzip decompression on every scan.
func OpenFile(path string) (*FileDB, error) {
	r, closer, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	count, err := readHeader(r)
	if err != nil {
		return nil, fmt.Errorf("txdb: %s: %w", path, err)
	}
	return &FileDB{path: path, count: count}, nil
}

func readHeader(r *bufio.Reader) (count int, err error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, fmt.Errorf("reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return 0, fmt.Errorf("bad magic %q", m[:])
	}
	ver, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("reading version: %w", err)
	}
	if ver != formatVersion {
		return 0, fmt.Errorf("unsupported version %d", ver)
	}
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, fmt.Errorf("reading count: %w", err)
	}
	return int(binary.LittleEndian.Uint64(fixed[:])), nil
}

// Count returns the number of transactions recorded in the header.
func (f *FileDB) Count() int { return f.count }

// Scan streams every transaction from disk. The Items slice passed to fn is
// reused between calls; fn must Clone it to retain it.
func (f *FileDB) Scan(fn func(Transaction) error) error {
	return f.ScanShard(0, 1, fn)
}

// ScanShard streams the records at the positions ShardRange gives the shard.
// The format is not seekable per record, so the bytes before the range are
// still read — those records are not handed to fn — but nothing after it is.
func (f *FileDB) ScanShard(shard, of int, fn func(Transaction) error) error {
	if of <= 0 || shard < 0 || shard >= of {
		return fmt.Errorf("txdb: bad shard %d/%d", shard, of)
	}
	r, closer, err := openReader(f.path)
	if err != nil {
		return err
	}
	defer closer.Close()
	if _, err := readHeader(r); err != nil {
		return err
	}
	faulty := fault.Active()
	var items item.Itemset
	tid := int64(0)
	lo, hi := ShardRange(f.count, shard, of)
	for i := 0; i < hi; i++ {
		if faulty {
			if err := fault.Hit(PointScan); err != nil {
				return fmt.Errorf("txdb: %s: record %d: %w", f.path, i, err)
			}
		}
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("txdb: record %d: tid: %w", i, err)
		}
		tid += int64(d)
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("txdb: record %d: length: %w", i, err)
		}
		if n > 1<<24 {
			return fmt.Errorf("txdb: record %d: absurd item count %d", i, n)
		}
		if cap(items) < int(n) {
			items = make(item.Itemset, n)
		}
		items = items[:n]
		prev := int64(-1)
		for j := 0; j < int(n); j++ {
			d, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("txdb: record %d: item %d: %w", i, j, err)
			}
			// Items are strictly increasing, so every delta from the
			// previous item (initially -1) must be ≥ 1; a zero delta means
			// a corrupt or hostile file.
			if d == 0 {
				return fmt.Errorf("txdb: record %d: item %d: zero delta (corrupt file)", i, j)
			}
			prev += int64(d)
			if prev > int64(^uint32(0)>>1) {
				return fmt.Errorf("txdb: record %d: item id overflow", i)
			}
			items[j] = item.Item(prev)
		}
		if i >= lo {
			if err := fn(Transaction{TID: tid, Items: items}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads an entire binary file into a MemDB.
func Load(path string) (*MemDB, error) {
	f, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	m := &MemDB{txs: make([]Transaction, 0, f.Count())}
	err = f.Scan(func(tx Transaction) error {
		m.Append(Transaction{TID: tx.TID, Items: tx.Items.Clone()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

package txdb

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// IsBinaryPath reports whether path names a file in the binary format by its
// suffix: .nmtx, or .nmtx.gz for the gzipped one. Every binary that takes
// transactions by path chooses between the binary format and basket text by
// it.
func IsBinaryPath(path string) bool {
	return strings.HasSuffix(path, ".nmtx") || strings.HasSuffix(path, ".nmtx.gz")
}

// isGzipPath reports whether path selects gzip framing (.gz suffix).
func isGzipPath(path string) bool { return strings.HasSuffix(path, ".gz") }

// writeAll emits a complete binary stream — header with the exact count,
// then every record — to w. It needs no seeking, so it also works through
// a gzip compressor.
func writeAll(w io.Writer, db DB) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.AppendUvarint(hdr, formatVersion)
	var fixed [8]byte
	binary.LittleEndian.PutUint64(fixed[:], uint64(db.Count()))
	hdr = append(hdr, fixed[:]...)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var enc Encoder
	var rec []byte
	err := db.Scan(func(tx Transaction) error {
		var err error
		rec, err = enc.AppendRecord(rec[:0], tx)
		if err != nil {
			return err
		}
		_, err = bw.Write(rec)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// openReader opens path and returns a buffered reader over its
// (possibly gzip-compressed) contents plus a closer for all resources.
func openReader(path string) (*bufio.Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !isGzipPath(path) {
		return bufio.NewReaderSize(f, 1<<16), f, nil
	}
	gz, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		f.Close()
		if !strings.HasPrefix(err.Error(), "gzip: ") { // gzip.ErrHeader and the like say it already
			err = fmt.Errorf("gzip: %w", err)
		}
		return nil, nil, fmt.Errorf("txdb: %s: %w", path, err)
	}
	return bufio.NewReaderSize(gz, 1<<16), multiCloser{gz, f}, nil
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

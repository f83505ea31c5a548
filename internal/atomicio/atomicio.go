// Package atomicio provides crash-safe file replacement: content is
// streamed to a temporary file in the destination directory, fsynced, and
// atomically renamed over the target, and the directory entry is fsynced
// too. A reader therefore observes either the old complete file or the new
// complete file — never a truncated one — no matter where the writer is
// killed. This is what lets `negmined -watch` poll a report file that
// `negmine -o` is rewriting without ever loading garbage.
package atomicio

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"negmine/internal/fault"
)

// PointWrite is the failpoint evaluated before every chunk flushed to the
// temporary file; arming it with an error simulates a writer killed
// mid-stream (the target must stay untouched).
const PointWrite = "atomicio.write"

// WriteFile atomically replaces path with whatever write produces. On any
// error — from write, the filesystem, or an injected fault — the temporary
// file is removed and the previous content of path is left intact.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := createTemp(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(faultWriter{tmp})
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself: fsync the directory. Best-effort — some
	// filesystems refuse to sync directories, and the data is already safe.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// createTemp creates a new file beside path, named path.tmp-<random>, with
// the mode os.Create gives a file — 0666 less the umask — where
// os.CreateTemp would give 0600.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp-" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 10000 {
			return f, err
		}
	}
}

// faultWriter threads the PointWrite failpoint into every flushed chunk.
type faultWriter struct{ w io.Writer }

func (f faultWriter) Write(p []byte) (int, error) {
	if err := fault.Hit(PointWrite); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

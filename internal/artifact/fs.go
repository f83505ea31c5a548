package artifact

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
)

// ManifestName is the manifest file inside an FS store directory. The
// manifest is the store's commit point: a generation exists exactly when it
// is listed there, and the file is only ever replaced atomically — so it
// doubles as the path a watcher polls to notice new generations.
const ManifestName = "MANIFEST.json"

// Ext is the artifact file extension used by FS.
const Ext = ".nsnap"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is the on-disk commit record.
type manifest struct {
	UpdatedNs   int64  `json:"updatedNs"`
	Generations []Info `json:"generations"` // ascending
}

// FS is the artifact store: one file per generation (%020d.nsnap, so the
// lexical order is the numeric order) plus an atomically replaced manifest.
// All methods are safe for concurrent use within one process, and every
// operation re-reads the manifest from disk first, so a reader handle (a
// replica daemon) follows a producer writing into the same directory —
// even from another process. Concurrent cross-process *writers* are not
// supported (one producer, many readers).
type FS struct {
	dir  string
	keep int

	mu sync.Mutex
	m  manifest
}

// OpenFS opens (creating if necessary) the store rooted at dir. keep bounds
// how many generations are retained after each Put (older ones are
// garbage-collected); keep <= 0 retains everything. Opening reconciles the
// directory against the manifest: entries whose file vanished are dropped,
// and files no manifest entry claims (a producer crashed between writing
// the artifact and committing the manifest) are removed.
func OpenFS(dir string, keep int) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &FS{dir: dir, keep: keep}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *FS) Dir() string { return s.dir }

// ManifestPath returns the manifest file path (the thing to watch for new
// generations).
func (s *FS) ManifestPath() string { return filepath.Join(s.dir, ManifestName) }

func (s *FS) genPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%020d%s", gen, Ext))
}

// loadManifest replaces the in-memory manifest with the on-disk one. Called
// with s.mu held (or before the store is shared). The manifest file is only
// ever swapped atomically, so a read observes a complete old or new state.
func (s *FS) loadManifest() error {
	s.m = manifest{}
	b, err := os.ReadFile(s.ManifestPath())
	if os.IsNotExist(err) {
		return nil // fresh store
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &s.m); err != nil {
		return fmt.Errorf("artifact: corrupt manifest %s: %w", s.ManifestPath(), err)
	}
	sort.Slice(s.m.Generations, func(i, j int) bool {
		return s.m.Generations[i].Generation < s.m.Generations[j].Generation
	})
	return nil
}

// reconcile drops manifest entries whose file is gone and deletes files the
// manifest does not claim (orphans from a crashed Put, stale temp files).
// Called with no lock needed — only from OpenFS.
func (s *FS) reconcile() error {
	listed := map[string]bool{}
	kept := s.m.Generations[:0]
	changed := false
	for _, g := range s.m.Generations {
		p := s.genPath(g.Generation)
		if _, err := os.Stat(p); err != nil {
			changed = true
			continue
		}
		listed[filepath.Base(p)] = true
		kept = append(kept, g)
	}
	s.m.Generations = kept
	if changed {
		if err := s.writeManifest(); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == ManifestName || e.IsDir() {
			continue
		}
		orphanArtifact := strings.HasSuffix(name, Ext) && !listed[name]
		staleTemp := strings.Contains(name, ".tmp-")
		if orphanArtifact || staleTemp {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// writeManifest atomically replaces the manifest with the in-memory state.
// Called with s.mu held (or from OpenFS before the store is shared).
func (s *FS) writeManifest() error {
	s.m.UpdatedNs = time.Now().UnixNano()
	return atomicio.WriteFile(s.ManifestPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&s.m)
	})
}

// crcWriter tees the artifact bytes through a CRC-32C and a byte count.
type crcWriter struct {
	w    io.Writer
	crc  uint32
	size int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.size += int64(n)
	return n, err
}

// Put stores the bytes produced by write as a new generation (chosen by
// the store, strictly increasing) and returns its metadata; the artifact is
// durable when Put returns. The artifact file is written crash-safely first,
// then the manifest entry is committed; a crash between the two leaves an
// orphan file that the next OpenFS removes, never a manifest entry without
// bytes. Retention GC runs after the commit.
func (s *FS) Put(source string, write func(gen uint64, w io.Writer) error) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadManifest(); err != nil {
		return Info{}, err
	}

	gen := uint64(1)
	if n := len(s.m.Generations); n > 0 {
		gen = s.m.Generations[n-1].Generation + 1
	}
	cw := &crcWriter{}
	path := s.genPath(gen)
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		cw.w = w
		return write(gen, cw)
	})
	if err != nil {
		return Info{}, err
	}
	info := Info{
		Generation: gen,
		Size:       cw.size,
		CRC32:      cw.crc,
		CreatedNs:  time.Now().UnixNano(),
		Source:     source,
	}
	if err := fault.Hit(PointPut); err != nil {
		// Crash window: artifact written, manifest not committed. Remove the
		// orphan eagerly; a real crash leaves it for OpenFS to clean.
		os.Remove(path)
		return Info{}, err
	}
	s.m.Generations = append(s.m.Generations, info)

	// Retention: trim the manifest first, commit, then delete the files —
	// a crash mid-GC leaves orphans (cleaned at next open), never dangling
	// manifest entries.
	var evict []uint64
	if s.keep > 0 && len(s.m.Generations) > s.keep {
		cut := len(s.m.Generations) - s.keep
		for _, g := range s.m.Generations[:cut] {
			evict = append(evict, g.Generation)
		}
		s.m.Generations = append([]Info(nil), s.m.Generations[cut:]...)
	}
	if err := s.writeManifest(); err != nil {
		s.m.Generations = nil
		if lerr := s.loadManifest(); lerr != nil {
			return Info{}, err
		}
		return Info{}, err
	}
	for _, g := range evict {
		if err := os.Remove(s.genPath(g)); err != nil && !os.IsNotExist(err) {
			return Info{}, err
		}
	}
	return info, nil
}

func (s *FS) find(gen uint64) (Info, bool) {
	for _, g := range s.m.Generations {
		if g.Generation == gen {
			return g, true
		}
	}
	return Info{}, false
}

// Get opens generation gen for reading.
func (s *FS) Get(gen uint64) (io.ReadCloser, Info, error) {
	s.mu.Lock()
	if err := s.loadManifest(); err != nil {
		s.mu.Unlock()
		return nil, Info{}, err
	}
	info, ok := s.find(gen)
	s.mu.Unlock()
	if !ok {
		return nil, Info{}, fmt.Errorf("generation %d: %w", gen, ErrNotFound)
	}
	f, err := os.Open(s.genPath(gen))
	if err != nil {
		return nil, Info{}, err
	}
	return f, info, nil
}

// List returns every stored generation in ascending order.
func (s *FS) List() ([]Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	return append([]Info(nil), s.m.Generations...), nil
}

// Latest returns the newest generation, or ErrEmpty.
func (s *FS) Latest() (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadManifest(); err != nil {
		return Info{}, err
	}
	if n := len(s.m.Generations); n > 0 {
		return s.m.Generations[n-1], nil
	}
	return Info{}, ErrEmpty
}

// Localize returns generation gen's file path, valid until the generation
// is deleted: the mmap fast path for snapshot loading.
func (s *FS) Localize(gen uint64) (string, Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadManifest(); err != nil {
		return "", Info{}, err
	}
	info, ok := s.find(gen)
	if !ok {
		return "", Info{}, fmt.Errorf("generation %d: %w", gen, ErrNotFound)
	}
	return s.genPath(gen), info, nil
}

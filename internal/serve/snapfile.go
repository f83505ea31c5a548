package serve

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"negmine/internal/snapfmt"
)

// This file bridges the in-memory Snapshot and the .nsnap on-disk format
// (internal/snapfmt). A file holds the arena and the rendered rules, handed
// to the encoder as-is. Opening one runs the direction in reverse — the
// loaded Snapshot's numeric slices and rendered-rule fragments alias the
// validated (typically mmap'd) file bytes — then materializes the item
// dictionary (strings, intern map) and derives the posting indexes from the
// arena (index), exactly as BuildSnapshot does.

// image converts the snapshot into a snapfmt.Image for encoding. The
// image's numeric slices alias the snapshot's arena — valid as long as s is.
func (s *Snapshot) image(gen uint64) *snapfmt.Image {
	m := len(s.names)
	nameOffs := make([]uint32, m+1)
	size := 0
	for _, nm := range s.names {
		size += len(nm)
	}
	blob := make([]byte, 0, size)
	for i, nm := range s.names {
		nameOffs[i] = uint32(len(blob))
		blob = append(blob, nm...)
	}
	nameOffs[m] = uint32(len(blob))

	createdNs := int64(0)
	if !s.built.IsZero() {
		createdNs = s.built.UnixNano()
	}
	return &snapfmt.Image{
		Header: snapfmt.Header{Generation: gen, CreatedNs: createdNs},
		Meta: snapfmt.Meta{
			Tool:       "negmine",
			Source:     s.source,
			MinSupport: s.minSup,
			MinRI:      s.minRI,
		},
		RI:       s.ri,
		Expected: s.expected,
		Actual:   s.actual,
		Off:      s.off,
		SideIDs:  s.sideIDs,
		NameOffs: nameOffs,
		NameBlob: blob,
		AncOff:   s.ancOff,
		AncIDs:   s.ancIDs,
		FragOff:  s.fragOff,
		FragBlob: s.frag,
	}
}

// EncodeSnapshot writes s to w in the .nsnap format under the given
// artifact-store generation.
func EncodeSnapshot(w io.Writer, s *Snapshot, gen uint64) error {
	return snapfmt.Encode(w, s.image(gen))
}

// WriteSnapshotFile atomically writes s to path as a .nsnap file.
func WriteSnapshotFile(path string, s *Snapshot, gen uint64) error {
	return snapfmt.WriteFile(path, s.image(gen))
}

// SnapshotFromImage builds a serving snapshot over a decoded image. The
// snapshot's numeric slices alias the image (and therefore the file bytes
// behind it); the item dictionary and intern map are materialized and the
// posting indexes derived.
func SnapshotFromImage(img *snapfmt.Image) (*Snapshot, error) {
	m := img.NumItems()
	s := &Snapshot{
		ri:       img.RI,
		expected: img.Expected,
		actual:   img.Actual,
		off:      img.Off,
		sideIDs:  img.SideIDs,
		ancOff:   img.AncOff,
		ancIDs:   img.AncIDs,
		fragOff:  img.FragOff,
		frag:     img.FragBlob,
		itemID:   make(map[string]int32, m),
		names:    make([]string, m),
		source:   img.Meta.Source,
		minSup:   img.Meta.MinSupport,
		minRI:    img.Meta.MinRI,
	}
	s.generation = img.Header.Generation
	for i := 0; i < m; i++ {
		name := img.Name(i)
		if _, dup := s.itemID[name]; dup {
			return nil, fmt.Errorf("serve: snapshot image has duplicate item name %q: %w",
				name, snapfmt.ErrFormat)
		}
		s.itemID[name] = int32(i)
		s.names[i] = name
	}
	s.sideNames = make([]string, len(s.sideIDs))
	for i, id := range s.sideIDs {
		s.sideNames[i] = s.names[id]
	}
	s.index()
	// built reflects when the rules were produced, not when this process
	// loaded them, so Age() keeps measuring rule staleness.
	s.built = img.Header.Created()
	return s, nil
}

// OpenSnapshotFile mmaps (or reads) a .nsnap file, validates it, and builds
// a serving snapshot whose numeric data is served straight from the mapping.
// The mapping's lifetime is tied to the snapshot: when the snapshot becomes
// unreachable (e.g. after an atomic swap retires it and every in-flight
// query drains), a finalizer releases the map. BuildSeconds in the
// snapshot's Info reports the load duration.
// The int is ignored: benchmark/batch.go passes one; ROADMAP item 1 deletes it.
func OpenSnapshotFile(path string, _ int) (*Snapshot, error) {
	start := time.Now()
	f, err := snapfmt.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := SnapshotFromImage(f.Image)
	if err != nil {
		f.Close()
		return nil, err
	}
	if s.built.UnixNano() <= 0 {
		// Pre-CreatedNs files (or writers that never stamped one) would leave
		// built at the epoch and Age() reporting decades — which replica-mode
		// daemons then export as snapshot.age_seconds until their first
		// manifest poll. The file's mtime is the honest fallback.
		if fi, statErr := os.Stat(path); statErr == nil {
			s.built = fi.ModTime()
		}
	}
	s.buildDur = time.Since(start)
	s.sourceKind = "mmap"
	runtime.SetFinalizer(s, func(*Snapshot) { f.Close() })
	return s, nil
}

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
// (internal/snapfmt). Encoding is a re-labelling, not a re-indexing: the
// arena slices and posting backing arrays are handed to the encoder as-is,
// and the posting descriptors recorded at compress time locate every row in
// those arrays. Decoding runs the direction in reverse — the loaded
// Snapshot's numeric slices and rendered-rule fragments alias the validated
// (typically mmap'd) file bytes, and only the item dictionary (strings,
// intern map) is materialized on the heap.

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
		Ante:     indexOut(&s.anteIdx),
		Cons:     indexOut(&s.consIdx),
		Reach:    indexOut(&s.reachIdx),
		FragOff:  s.fragOff,
		FragBlob: s.frag,
	}
}

func indexOut(pb *postingBacking) snapfmt.PostingIndex {
	descs := make([]snapfmt.PostingDesc, len(pb.descs))
	for i, d := range pb.descs {
		descs[i] = snapfmt.PostingDesc{Off: d.off, Len: d.length, N: d.n, Kind: d.kind}
	}
	return snapfmt.PostingIndex{Descs: descs, IDs: pb.ids, Words: pb.words}
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

// indexIn reconstructs one posting index from its decoded form. The posting
// subslices alias the image's backing arrays.
func indexIn(pi *snapfmt.PostingIndex) ([]posting, postingBacking) {
	m := len(pi.Descs)
	ps := make([]posting, m)
	pb := postingBacking{descs: make([]pdesc, m), ids: pi.IDs, words: pi.Words}
	for i, d := range pi.Descs {
		pb.descs[i] = pdesc{off: d.Off, length: d.Len, n: d.N, kind: d.Kind}
		end := d.Off + d.Len
		switch d.Kind {
		case snapfmt.PostingSparse:
			ps[i] = posting{ids: pi.IDs[d.Off:end:end], n: int32(d.N)}
		case snapfmt.PostingDense:
			ps[i] = posting{bits: pi.Words[d.Off:end:end], n: int32(d.N)}
		}
	}
	return ps, pb
}

// SnapshotFromImage builds a serving snapshot over a decoded image. The
// snapshot's numeric slices alias the image (and therefore the file bytes
// behind it); only the item dictionary and intern map are materialized.
// cacheSize follows Meta.CacheSize semantics (0 = default, < 0 = disabled).
func SnapshotFromImage(img *snapfmt.Image, cacheSize int) (*Snapshot, error) {
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
	s.ante, s.anteIdx = indexIn(&img.Ante)
	s.cons, s.consIdx = indexIn(&img.Cons)
	s.reach, s.reachIdx = indexIn(&img.Reach)

	n := len(s.ri)
	s.ruleWords = (n + 63) / 64
	s.itemWords = (m + 63) / 64
	s.arenaBytes = int64(n)*(3*8) + int64(len(s.off))*4 +
		int64(len(s.sideIDs))*4 + int64(len(s.sideNames))*16 +
		int64(len(s.names))*16 + int64(len(s.ancOff))*4 + int64(len(s.ancIDs))*4 +
		s.renderedBytes()
	s.indexBytes = int64(len(s.anteIdx.ids)+len(s.consIdx.ids)+len(s.reachIdx.ids))*4 +
		int64(len(s.anteIdx.words)+len(s.consIdx.words)+len(s.reachIdx.words))*8 +
		int64(3*m)*postingHeaderBytes

	if cacheSize >= 0 {
		if cacheSize == 0 {
			cacheSize = DefaultCacheSize
		}
		s.cache = newQueryCache(cacheSize)
	}
	s.scratch.New = newScratch(s.ruleWords, s.itemWords)
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
func OpenSnapshotFile(path string, cacheSize int) (*Snapshot, error) {
	start := time.Now()
	f, err := snapfmt.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := SnapshotFromImage(f.Image, cacheSize)
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

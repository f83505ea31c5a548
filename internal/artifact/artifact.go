// Package artifact stores versioned build artifacts — .nsnap serving
// snapshots and replicated segment-log envelopes — as an append-only
// sequence of generations with checksum metadata. The store is FS, a local
// directory managed with crash-safe writes (internal/atomicio), a manifest
// as the commit point, orphan cleanup, and retention GC; every caller
// (negmined, seglog's Shipper and Follower, PublishEpoch, StoreEpoch) takes
// an *FS.
//
// The store assigns generations: Put hands the chosen generation to the
// writer callback before any byte is produced, because formats like snapfmt
// embed the generation in their header. Localize returns a generation's
// file path, which is what lets a consumer mmap the artifact instead of
// streaming it.
package artifact

import "errors"

// PointPut is the failpoint evaluated after an artifact's bytes are durably
// written but before its manifest entry is committed; arming it with an
// error models a crash in the commit window (the orphaned file must be
// invisible to readers and cleaned up on the next open).
const PointPut = "artifact.put"

// ErrNotFound reports that the requested generation is not in the store.
var ErrNotFound = errors.New("artifact: generation not found")

// ErrEmpty reports that the store holds no generations at all.
var ErrEmpty = errors.New("artifact: store is empty")

// Info is one stored generation's metadata.
type Info struct {
	Generation uint64 `json:"generation"`
	Size       int64  `json:"size"`
	CRC32      uint32 `json:"crc32"` // CRC-32C of the full artifact bytes
	CreatedNs  int64  `json:"createdNs"`
	Source     string `json:"source,omitempty"` // producer hint ("mined", "ingest", ...)
}

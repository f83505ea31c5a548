package seglog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"negmine/internal/atomicio"
)

// manifestName is the manifest file inside a log directory.
const manifestName = "manifest.json"

// manifestVersion is the current manifest format version.
const manifestVersion = 1

// SegmentEntry describes one sealed, immutable segment. Bytes and CRC cover
// the whole segment file (header and frames), so a sealed segment can be
// verified without trusting anything but the manifest.
type SegmentEntry struct {
	ID     int64  `json:"id"`
	Txns   int    `json:"txns"`
	Bytes  int64  `json:"bytes"`
	CRC    uint32 `json:"crc"`
	MinTID int64  `json:"minTid"`
	MaxTID int64  `json:"maxTid"`
}

// manifest is the log's source of truth: the ordered list of sealed
// segments, the id of the active segment, and the next id to allocate. It
// is only ever replaced atomically (atomicio), so a reader observes either
// the old or the new log state — never a mix.
type manifest struct {
	Version int   `json:"version"`
	NextID  int64 `json:"nextId"`
	Active  int64 `json:"active"`
	// Epoch is the log's fencing token. Every append made on behalf of a
	// writer carries the epoch the writer believes it owns; a mismatch is
	// rejected with ErrFenced. Promotion (HA failover) bumps the epoch, so
	// a deposed primary's late writes can never land after the standby has
	// taken over. Absent in pre-HA manifests, which decode as epoch 0.
	Epoch  int64          `json:"epoch,omitempty"`
	Sealed []SegmentEntry `json:"sealed"`
}

// validate checks the structural invariants a well-formed manifest has.
// Violations mean the manifest bytes were corrupted (or hand-edited), and
// the log refuses to open rather than guess which transactions survive.
func (m *manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("seglog: unsupported manifest version %d", m.Version)
	}
	if m.Active <= 0 {
		return fmt.Errorf("seglog: manifest has no active segment")
	}
	if m.Epoch < 0 {
		return fmt.Errorf("seglog: manifest has negative epoch %d", m.Epoch)
	}
	seen := map[int64]bool{m.Active: true}
	maxID := m.Active
	for i, e := range m.Sealed {
		if e.ID <= 0 || seen[e.ID] {
			return fmt.Errorf("seglog: manifest sealed entry %d: bad or duplicate id %d", i, e.ID)
		}
		seen[e.ID] = true
		if e.ID > maxID {
			maxID = e.ID
		}
		if e.Txns <= 0 || e.Bytes <= 0 {
			return fmt.Errorf("seglog: manifest sealed entry %d (id %d): empty segment", i, e.ID)
		}
		if e.MinTID <= 0 || e.MaxTID < e.MinTID {
			return fmt.Errorf("seglog: manifest sealed entry %d (id %d): bad TID range [%d, %d]", i, e.ID, e.MinTID, e.MaxTID)
		}
	}
	if m.NextID <= maxID {
		return fmt.Errorf("seglog: manifest nextId %d not above max segment id %d", m.NextID, maxID)
	}
	return nil
}

// loadManifest reads and validates dir's manifest. os.ErrNotExist is
// returned verbatim when none exists yet (a fresh log directory).
func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("seglog: %s: %w", manifestName, err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// storeManifest atomically replaces dir's manifest. It is written compact:
// every seal rewrites it whole, so indentation would be paid per entry on
// every seal. An indented manifest, as older versions wrote it, reads the
// same.
func storeManifest(dir string, m *manifest) error {
	return atomicio.WriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSnapshotWatermark covers the freshness accessors: a watermarked
// snapshot measures freshness from the append time of the last visible
// transaction; without a watermark it falls back to the build clock, so
// freshness and age agree.
func TestSnapshotWatermark(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	st, tax, _, _ := randomWorld(t, rng)
	snap := BuildSnapshot(st, tax, Meta{})

	if snap.VisibleWatermark() != 0 {
		t.Fatalf("fresh snapshot VisibleWatermark = %d, want 0", snap.VisibleWatermark())
	}
	if diff := snap.Freshness() - snap.Age(); diff < -time.Second || diff > time.Second {
		t.Fatalf("unwatermarked Freshness %v and Age %v disagree", snap.Freshness(), snap.Age())
	}

	at := time.Now().Add(-42 * time.Second)
	snap.SetWatermark(1234, at)
	if snap.VisibleWatermark() != 1234 {
		t.Fatalf("VisibleWatermark = %d, want 1234", snap.VisibleWatermark())
	}
	if f := snap.Freshness(); f < 41*time.Second || f > 44*time.Second {
		t.Fatalf("Freshness = %v, want ≈42s", f)
	}
}

// TestReplicaFreshnessClockAgreement is the satellite-3 regression: a
// replica that has never mined locally serves an mmap snapshot with no
// watermark, and its .nsnap may predate CreatedNs stamping — the case where
// OpenSnapshotFile falls back to the file mtime. The freshness gauge must
// read the exact same fallback clock as -watch/replica snapshot age; if the
// two ever use different sources, a replica would alarm on freshness while
// reporting a healthy age (or vice versa).
func TestReplicaFreshnessClockAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st, tax, _, _ := randomWorld(t, rng)
	built := BuildSnapshot(st, tax, Meta{})
	built.built = time.Time{} // writer that never stamped CreatedNs
	path := filepath.Join(t.TempDir(), "replica.nsnap")
	if err := WriteSnapshotFile(path, built, 1); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(-30 * time.Minute).Truncate(time.Second)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VisibleWatermark() != 0 {
		t.Fatalf("replica snapshot has watermark %d", loaded.VisibleWatermark())
	}
	age, fresh := loaded.Age(), loaded.Freshness()
	if age < 29*time.Minute || age > 32*time.Minute {
		t.Fatalf("Age = %v, want ≈30m from mtime", age)
	}
	if diff := fresh - age; diff < -time.Second || diff > time.Second {
		t.Fatalf("Freshness %v disagrees with Age %v on the mtime-fallback clock", fresh, age)
	}

	// And a stamped replica file: both read the embedded CreatedNs.
	stamped := BuildSnapshot(st, tax, Meta{})
	path2 := filepath.Join(t.TempDir(), "stamped.nsnap")
	if err := WriteSnapshotFile(path2, stamped, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path2, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	loaded2, err := OpenSnapshotFile(path2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := loaded2.Freshness() - loaded2.Age(); diff < -time.Second || diff > time.Second {
		t.Fatalf("stamped Freshness %v disagrees with Age %v", loaded2.Freshness(), loaded2.Age())
	}
	if loaded2.Age() > time.Minute {
		t.Fatalf("stamped Age = %v, should read CreatedNs (just built), not mtime", loaded2.Age())
	}
}

// TestMetricsFreshnessGauges: the /metrics document must export
// snapshot.freshness_seconds and ingest.visible_watermark, read from the
// served snapshot (not the sink), alongside the existing age_seconds gauge.
func TestMetricsFreshnessGauges(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st, tax, _, _ := randomWorld(t, rng)
	snap := BuildSnapshot(st, tax, Meta{})
	snap.SetWatermark(777, time.Now().Add(-5*time.Second))

	m := NewMetrics()
	m.ingestStats = func() IngestStats { return IngestStats{Segments: 1} }
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Snapshot struct {
			AgeSeconds       float64 `json:"age_seconds"`
			FreshnessSeconds float64 `json:"freshness_seconds"`
		} `json:"snapshot"`
		Ingest struct {
			Segments         int   `json:"segments"`
			VisibleWatermark int64 `json:"visible_watermark"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ingest.VisibleWatermark != 777 {
		t.Fatalf("ingest.visible_watermark = %d, want 777", doc.Ingest.VisibleWatermark)
	}
	if doc.Ingest.Segments != 1 {
		t.Fatalf("ingest stats lost in wrapping: %+v", doc.Ingest)
	}
	if f := doc.Snapshot.FreshnessSeconds; f < 4 || f > 8 {
		t.Fatalf("snapshot.freshness_seconds = %v, want ≈5", f)
	}
	if doc.Snapshot.AgeSeconds > 60 {
		t.Fatalf("snapshot.age_seconds = %v for a just-built snapshot", doc.Snapshot.AgeSeconds)
	}
}

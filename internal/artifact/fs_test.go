package artifact

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"negmine/internal/atomicio"
	"negmine/internal/fault"
)

func put(t *testing.T, s *FS, source, content string) Info {
	t.Helper()
	info, err := s.Put(source, func(gen uint64, w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s:gen%d", content, gen)
		return err
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	return info
}

func readGen(t *testing.T, s *FS, gen uint64) string {
	t.Helper()
	rc, _, err := s.Get(gen)
	if err != nil {
		t.Fatalf("Get(%d): %v", gen, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read gen %d: %v", gen, err)
	}
	return string(b)
}

func TestFSPutGetLatest(t *testing.T) {
	s, err := OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Latest on empty store: %v", err)
	}

	i1 := put(t, s, "mined", "alpha")
	i2 := put(t, s, "ingest", "beta")
	if i1.Generation != 1 || i2.Generation != 2 {
		t.Fatalf("generations = %d, %d", i1.Generation, i2.Generation)
	}
	if got := readGen(t, s, 1); got != "alpha:gen1" {
		t.Errorf("gen 1 = %q", got)
	}
	if got := readGen(t, s, 2); got != "beta:gen2" {
		t.Errorf("gen 2 = %q", got)
	}
	want := crc32.Checksum([]byte("beta:gen2"), castagnoli)
	if i2.CRC32 != want || i2.Size != int64(len("beta:gen2")) || i2.Source != "ingest" {
		t.Errorf("info = %+v", i2)
	}
	latest, err := s.Latest()
	if err != nil || latest.Generation != 2 {
		t.Errorf("Latest = %+v, %v", latest, err)
	}
	list, _ := s.List()
	if len(list) != 2 || list[0].Generation != 1 || list[1].Generation != 2 {
		t.Errorf("List = %+v", list)
	}

	path, info, err := s.Localize(2)
	if err != nil || info.Generation != 2 {
		t.Fatalf("Localize: %+v, %v", info, err)
	}
	if b, _ := os.ReadFile(path); string(b) != "beta:gen2" {
		t.Errorf("localized file = %q", b)
	}

	if _, _, err := s.Get(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(99): %v", err)
	}
}

func TestFSRetention(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFS(dir, 2)
	for i := 0; i < 5; i++ {
		put(t, s, "m", "x")
	}
	list, _ := s.List()
	if len(list) != 2 || list[0].Generation != 4 || list[1].Generation != 5 {
		t.Fatalf("retained = %+v", list)
	}
	entries, _ := os.ReadDir(dir)
	var snaps int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == Ext {
			snaps++
		}
	}
	if snaps != 2 {
		t.Errorf("%d snapshot files on disk, want 2", snaps)
	}
}

func TestFSReopenResumesGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFS(dir, 0)
	put(t, s, "m", "a")
	put(t, s, "m", "b")

	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest, _ := s2.Latest(); latest.Generation != 2 {
		t.Fatalf("reopened latest = %+v", latest)
	}
	if got := readGen(t, s2, 1); got != "a:gen1" {
		t.Errorf("gen 1 after reopen = %q", got)
	}
	if info := put(t, s2, "m", "c"); info.Generation != 3 {
		t.Errorf("generation after reopen = %d", info.Generation)
	}
}

// TestFSOrphanCleanup models a producer crash between artifact write and
// manifest commit: the orphan must be invisible and removed at next open.
func TestFSOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFS(dir, 0)
	put(t, s, "m", "a")

	// Forge an uncommitted artifact and a stale temp file.
	orphan := filepath.Join(dir, fmt.Sprintf("%020d%s", 2, Ext))
	os.WriteFile(orphan, []byte("torn"), 0o644)
	stale := filepath.Join(dir, "x.nsnap.tmp-123")
	os.WriteFile(stale, []byte("tmp"), 0o644)

	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest, _ := s2.Latest(); latest.Generation != 1 {
		t.Fatalf("orphan visible: latest = %+v", latest)
	}
	for _, p := range []string{orphan, stale} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s not cleaned up", p)
		}
	}
}

// TestFSPutFailpoint arms the commit-window failpoint: Put must fail, the
// store must be unchanged, and the next Put must reuse the generation.
func TestFSPutFailpoint(t *testing.T) {
	s, _ := OpenFS(t.TempDir(), 0)
	put(t, s, "m", "a")

	defer fault.Enable(PointPut, fault.Error("crashed before commit"))()
	_, err := s.Put("m", func(gen uint64, w io.Writer) error {
		_, err := io.WriteString(w, "doomed")
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under failpoint: %v", err)
	}
	fault.Disable(PointPut)

	if latest, _ := s.Latest(); latest.Generation != 1 {
		t.Fatalf("failed Put changed the store: %+v", latest)
	}
	if info := put(t, s, "m", "b"); info.Generation != 2 {
		t.Errorf("generation after failed Put = %d", info.Generation)
	}
}

// TestFSTornArtifactWrite arms the atomicio failpoint so the artifact write
// itself dies mid-stream: no file, no manifest change.
func TestFSTornArtifactWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFS(dir, 0)
	put(t, s, "m", "a")

	defer fault.Enable(atomicio.PointWrite, fault.Error("disk died"))()
	_, err := s.Put("m", func(gen uint64, w io.Writer) error {
		_, err := io.WriteString(w, "doomed")
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under torn write: %v", err)
	}
	fault.Disable(atomicio.PointWrite)

	if latest, _ := s.Latest(); latest.Generation != 1 {
		t.Fatalf("torn write changed the store: %+v", latest)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%020d%s", 2, Ext))); !os.IsNotExist(err) {
		t.Error("torn write left an artifact file")
	}
}

func TestFSManifestVanishedFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenFS(dir, 0)
	put(t, s, "m", "a")
	put(t, s, "m", "b")
	// Someone removed gen 1's file behind our back; reopen drops the entry.
	os.Remove(filepath.Join(dir, fmt.Sprintf("%020d%s", 1, Ext)))
	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	list, _ := s2.List()
	if len(list) != 1 || list[0].Generation != 2 {
		t.Fatalf("list after vanish = %+v", list)
	}
}

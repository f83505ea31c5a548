package atomicio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine/internal/fault"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	want := strings.Repeat("hello atomic world\n", 100)
	err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, want)
		return err
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != want {
		t.Fatalf("content mismatch: %d bytes, want %d", len(got), len(want))
	}
}

// TestWriteFileMode: the file gets the mode os.Create gives a new file in the
// same directory, the umask's choice, not a temporary file's 0600.
func TestWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	probe, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	want, err := os.Stat(probe.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.json")
	if err := WriteFile(path, func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("WriteFile made %v, os.Create makes %v", got.Mode(), want.Mode())
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, []byte("old content"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content")
		return err
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new content" {
		t.Fatalf("content = %q, want %q", got, "new content")
	}
}

// TestKilledWriteLeavesTargetIntact arms the write failpoint so the stream
// dies mid-file (the payload spans several bufio chunks), and checks the
// previous content survives and no temp litter is left behind.
func TestKilledWriteLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	const old = "previous complete report"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	defer fault.Enable(PointWrite, fault.Error("disk died"), fault.OnHit(2))()
	chunk := bytes.Repeat([]byte("x"), 4096) // one bufio buffer per write
	err := WriteFile(path, func(w io.Writer) error {
		for i := 0; i < 16; i++ {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteFile = %v, want injected error", err)
	}
	if fault.Fired(PointWrite) != 1 {
		t.Fatalf("failpoint fired %d times, want 1", fault.Fired(PointWrite))
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != old {
		t.Fatalf("target after killed write = %q, %v; want old content intact", got, rerr)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestWriteCallbackErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	sentinel := errors.New("emit failed")
	if err := WriteFile(path, func(io.Writer) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target created despite failed write: %v", err)
	}
}

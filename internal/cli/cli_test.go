package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestExitCode pins the exit policy every binary's main goes through: -h
// exits 0 like success, a usage error 2 however deeply wrapped, anything
// else 1.
func TestExitCode(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	usage := Usagef(fs, "-n = %d, want ≥ 0", -1)
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"help", flag.ErrHelp, 0},
		{"wrapped help", fmt.Errorf("parsing: %w", flag.ErrHelp), 0},
		{"usage", usage, 2},
		{"wrapped usage", fmt.Errorf("config: %w", usage), 2},
		{"other", errors.New("disk died"), 1},
		{"parse error", fs.Parse([]string{"-nope"}), 1},
	} {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestUsagefPrintsUsage: a usage error comes with the flag set's usage, and
// its message is the formatted one.
func TestUsagefPrintsUsage(t *testing.T) {
	var out strings.Builder
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(&out)
	var h HTTPFlags
	h.Register(fs)
	if err := fs.Parse([]string{"-drain", "-1s"}); err != nil {
		t.Fatal(err)
	}
	err := h.Check(fs)
	if ExitCode(err) != 2 || err.Error() != "-drain = -1s, want ≥ 0" {
		t.Fatalf("Check = %v (exit %d), want the -drain usage error", err, ExitCode(err))
	}
	if !strings.Contains(out.String(), "-read-timeout") {
		t.Fatalf("usage not printed:\n%s", out.String())
	}
}

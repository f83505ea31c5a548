package negmine_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoFacadeOnlyInternalPackages pins two properties of the import graph
// (non-test imports of every package in the module): no internal package is
// kept alive by the root facade alone — something a binary or another
// internal package links must import it too — and the hash tree, the
// paper-faithful counting engine and the benchmark's counting oracle, is
// reached only through internal/count.
func TestNoFacadeOnlyInternalPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list; skipped in -short")
	}
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	const internal = "negmine/internal/"
	importers := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if _, seen := importers[f[0]]; !seen && strings.HasPrefix(f[0], internal) {
			importers[f[0]] = nil // listed even if nothing imports it
		}
		for _, dep := range f[1:] {
			if strings.HasPrefix(dep, internal) {
				importers[dep] = append(importers[dep], f[0])
			}
		}
	}
	if len(importers) == 0 {
		t.Fatalf("go list found no %s* package:\n%s", internal, out)
	}
	for pkg, by := range importers {
		if len(by) == 0 || (len(by) == 1 && by[0] == "negmine") {
			t.Errorf("%s is imported by %v: only the facade (or nothing) reaches it", pkg, by)
		}
	}
	if by := importers[internal+"hashtree"]; len(by) != 1 || by[0] != internal+"count" {
		t.Errorf("internal/hashtree is imported by %v, want exactly [%scount]", by, internal)
	}
}

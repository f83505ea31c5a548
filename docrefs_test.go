package negmine_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests holds README.md and DESIGN.md to the tests they
// cite: every Test, Benchmark, Fuzz or Example name in them must be a
// function of some _test.go in the repository, or, written with a trailing
// "…" or "*", the prefix of one. A command that runs a test by a name no
// test has runs nothing and passes.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !funcs["TestDocsCiteExistingTests"] {
		t.Fatalf("found %d test functions, not this one: the walk missed the repository", len(funcs))
	}

	cite := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)(…|\*)?`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(text), -1) {
			name, prefix := m[1], m[2] != ""
			found := funcs[name]
			for f := range funcs {
				found = found || prefix && strings.HasPrefix(f, name)
			}
			if !found {
				t.Errorf("%s cites %s%s, which no _test.go defines", doc, name, m[2])
			}
		}
	}
}

package negmine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// TestDocsCiteExistingCode holds README.md and DESIGN.md to the code they
// cite: every backticked pkg.Name, pkg.Name.Member or internal/pkg.Name, where
// pkg is a package under internal/, a binary under cmd/ or the negmine facade
// and Name is exported, must name a declaration of that package, and Member a
// method or field of Name when Name is a type. A doc that cites deleted code
// describes a system that no longer exists.
func TestDocsCiteExistingCode(t *testing.T) {
	decls := map[string]map[string]bool{} // package → "Name" and "Type.Member"
	types := map[string]bool{}            // "pkg.Type"
	fset := token.NewFileSet()
	for _, glob := range []string{"*.go", "cmd/*/*.go", "internal/*/*.go"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkg := filepath.Base(filepath.Dir(p))
			if filepath.Dir(p) == "." {
				pkg = "negmine"
			}
			if decls[pkg] == nil {
				decls[pkg] = map[string]bool{}
			}
			declare := func(name string) { decls[pkg][name] = true }
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name.Name)
					} else {
						declare(recvName(d.Recv.List[0].Type) + "." + d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name.Name)
							types[pkg+"."+s.Name.Name] = true
							var fields *ast.FieldList
							switch ty := s.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields
							case *ast.InterfaceType:
								fields = ty.Methods
							default:
								continue
							}
							for _, fl := range fields.List {
								for _, id := range fl.Names {
									declare(s.Name.Name + "." + id.Name)
								}
								if len(fl.Names) == 0 { // embedded: named by its type
									declare(s.Name.Name + "." + recvName(fl.Type))
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(decls["txdb"]) == 0 || len(decls["negmine"]) == 0 {
		t.Fatalf("declarations of %d packages, none of txdb or negmine: the walk missed the tree", len(decls))
	}

	span := regexp.MustCompile("`[^`\n]+`")
	cite := regexp.MustCompile(`(?:^|[^\w./])(?:internal/)?([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			for _, m := range cite.FindAllStringSubmatch(s, -1) {
				pkg, name := m[1], m[2]
				if decls[pkg] == nil {
					continue
				}
				if m[3] != "" && types[pkg+"."+name] {
					name += "." + m[3]
				}
				if !decls[pkg][name] {
					t.Errorf("%s cites %s.%s in %s, which %s does not declare", doc, pkg, name, s, pkg)
				}
			}
		}
	}
}

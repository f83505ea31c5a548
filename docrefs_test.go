package negmine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// goTestFlags are the `go test` flags the docs' commands use; no binary
// registers them.
var goTestFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true,
	"race": true, "run": true, "short": true, "v": true,
}

// TestDocsCiteExistingFlags holds the docs to the flags the binaries take:
// every -flag in a backticked span of README.md or DESIGN.md, and every -flag
// in the package comment of a cmd/*/main.go, must be registered by some
// binary, directly or through internal/cli, or be one of goTestFlags. A span
// is read whole, so "`k`-itemsets" cites no flag; a span of Go code (one
// holding ":=") is skipped. A doc that cites a deleted flag tells an operator
// to type something the binary rejects.
func TestDocsCiteExistingFlags(t *testing.T) {
	nameArg := map[string]int{} // registration method → index of its name argument
	for _, kind := range []string{"Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration"} {
		nameArg[kind], nameArg[kind+"Var"] = 0, 1
	}
	nameArg["Func"], nameArg["BoolFunc"], nameArg["Var"], nameArg["TextVar"] = 0, 0, 1, 1
	// Every flag.FlagSet answers -h and -help.
	registered := map[string]bool{"h": true, "help": true}
	docs := map[string]string{} // cmd/*/main.go → its package comment
	fset := token.NewFileSet()
	paths, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	cliPaths, err := filepath.Glob("internal/cli/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(paths, cliPaths...) {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(p) == "main.go" && f.Doc != nil {
			docs[p] = f.Doc.Text()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := nameArg[sel.Sel.Name]; ok && i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						registered[name] = true
					}
				}
			}
			return true
		})
	}
	if !registered["minsup"] || !registered["drain"] || len(docs) < 7 {
		t.Fatalf("%d flags (minsup %v, drain %v), %d package comments: the walk missed the binaries",
			len(registered), registered["minsup"], registered["drain"], len(docs))
	}

	flagRe := regexp.MustCompile(`(?:^|[\s(/])-([a-z][a-z0-9-]*)`)
	cited := 0
	check := func(where, text string) {
		for _, m := range flagRe.FindAllStringSubmatch(text, -1) {
			cited++
			if name := m[1]; !registered[name] && !goTestFlags[name] {
				t.Errorf("%s cites -%s, which no binary registers", where, name)
			}
		}
	}
	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			if !strings.Contains(s, ":=") {
				check(doc+" "+s, strings.Trim(s, "`"))
			}
		}
	}
	for p, doc := range docs {
		check(p+"'s package comment", doc)
	}
	if cited < 100 {
		t.Fatalf("only %d flag citations found: the scan missed the docs", cited)
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

package negmine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchOnly is the reason of an exportAllowlist entry that only the benchmark
// module reaches.
const benchOnly = "only benchmark/ names it; ROADMAP item 1(b) deletes it once the benchmark stops timing it"

// exportAllowlist names the exported identifiers of internal/ that
// TestInternalExportsHaveCallers accepts without a caller, each with its
// reason. Keys are "pkg.Name" for package-level names and "pkg.Type.Name" for
// methods and fields, pkg being the directory under internal/. An entry that
// excuses nothing fails the test, and so does a benchOnly entry that the
// benchmark does not name, so the list shrinks as its names gain callers or
// are deleted.
var exportAllowlist = map[string]string{
	"negative.MineWithCounts":    benchOnly,
	"cluster.ShardsForBasket":    benchOnly,
	"cluster.MergeRules":         benchOnly,
	"cluster.MergeMatches":       benchOnly,
	"cluster.RulesDoc":           benchOnly,
	"cluster.ScoreDoc":           benchOnly,
	"serve.CacheStats":           benchOnly,
	"serve.RuleJSON":             benchOnly,
	"serve.Snapshot.QueryShared": benchOnly,
	"txdb.WriteBaskets":          benchOnly,
}

// TestInternalExportsHaveCallers fails for every exported identifier declared
// in internal/ that no other code names.
//
// A package-level func, type, var or const is named by a qualified pkg.Name
// in another package (the import name resolved, aliases included) or by a
// bare Name in its own package; a method's receiver does not name its type. A
// method or a field is named by a selector or a composite-literal key with its
// name anywhere, and a field with a struct tag by the tag, which reflection
// reads. Matching by name alone can hide a dead method behind a live one of
// the same name, but never fails a live one.
//
// Callers are the non-test Go of the module (cmd/, the facade, examples/,
// internal/) and the _test.go files of another package: a name that only its
// own package's tests reach has no caller. The benchmark module is not a
// caller; what only it reaches is on exportAllowlist.
func TestInternalExportsHaveCallers(t *testing.T) {
	type goFile struct {
		dir         string // slash path from the module root
		test, bench bool   // a _test.go file; in the benchmark module
		ast         *ast.File
	}
	fset := token.NewFileSet()
	var files []goFile
	pkgName := map[string]string{} // directory → package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." || p == "benchmark" {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		test := strings.HasSuffix(p, "_test.go")
		if !test {
			pkgName[dir] = f.Name.Name
		}
		files = append(files, goFile{dir, test, dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: the identifiers a declaration introduces, which name
	// nothing, and the exported ones of internal/ that need a caller.
	type decl struct {
		key, pos string
		dir      string // the declaring package's directory
		member   bool   // a method or a field, matched by name
	}
	var decls []decl
	declares := map[*ast.Ident]bool{}
	tagged := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declares[n.Name] = true
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							declares[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				declares[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declares[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declares[id] = true
					tagged[id] = n.Tag != nil
				}
			}
			return true
		})
		if f.test || f.bench || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(f.dir, "internal/")
		add := func(id *ast.Ident, key string, member bool) {
			if id.IsExported() && !tagged[id] {
				decls = append(decls, decl{key, fset.Position(id.Pos()).String(), f.dir, member})
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pkg+"."+d.Name.Name, false)
				} else {
					add(d.Name, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name, false)
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
								add(id, pkg+"."+s.Name.Name+"."+id.Name, true)
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name, false)
						}
					}
				}
			}
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported declarations in internal/: the walk missed the tree", len(decls))
	}

	// Uses, each with who names it: the directory of a non-test file,
	// "test:" and the directory of a test file, or "benchmark".
	// qualified and bare are keyed by directory and name, member by name.
	qualified, bare, member := map[string]map[string]bool{}, map[string]map[string]bool{}, map[string]map[string]bool{}
	note := func(uses map[string]map[string]bool, key, namer string) {
		if uses[key] == nil {
			uses[key] = map[string]bool{}
		}
		uses[key][namer] = true
	}
	for _, f := range files {
		namer := f.dir
		switch {
		case f.bench:
			namer = "benchmark"
		case f.test:
			namer = "test:" + f.dir
		}
		imports := map[string]string{} // import name → directory
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(path, "negmine/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if dir, ok := imports[x.Name]; ok {
						note(qualified, dir+"."+n.Sel.Name, namer)
						return false
					}
				}
				note(member, n.Sel.Name, namer)
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					note(member, k.Name, namer)
				}
			case *ast.Ident:
				if !declares[n] {
					note(bare, f.dir+"."+n.Name, namer)
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	// calledBy reports whether a namer in namers calls a name declared in
	// dir: any non-test file of the module, or another package's test.
	calledBy := func(namers map[string]bool, dir string) bool {
		for n := range namers {
			if n != "benchmark" && n != "test:"+dir {
				return true
			}
		}
		return false
	}
	excused := map[string]bool{}
	var dead []string
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		uses := qualified[d.dir+"."+name]
		alive := calledBy(uses, d.dir) || bare[d.dir+"."+name][d.dir]
		if d.member {
			uses = member[name]
			alive = calledBy(uses, d.dir)
		}
		switch {
		case alive:
		case exportAllowlist[d.key] == "":
			dead = append(dead, d.pos+": "+d.key)
		default:
			excused[d.key] = true
			if exportAllowlist[d.key] == benchOnly && !uses["benchmark"] {
				t.Errorf("exportAllowlist excuses %s as benchmark-only, but benchmark/ does not name it", d.key)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no code outside its own package's tests names it", d)
	}
	for key := range exportAllowlist {
		if !excused[key] {
			t.Errorf("exportAllowlist excuses %s, which is not declared or has a caller: delete the entry", key)
		}
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

package negmine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
	"cluster.Router.Pool":        benchOnly,
	"txdb.WriteBaskets":          benchOnly,
}

// TestInternalExportsHaveCallers fails for every exported identifier declared
// in internal/ — a package-level name, a method, a struct field without a
// tag (reflection reads a tagged one) or an interface method — that no other
// code reaches.
//
// References are resolved by go/types, so each names one declared object: a
// dead method is not hidden by a live one of the same name. The non-test Go
// of the module is type-checked from source as one program; each test
// package, and each package of the benchmark module, against the export data
// `go list -export` leaves for the packages it imports. An object is keyed by
// where it is declared, which export data records as source does. A method is
// also reached when its type satisfies an interface whose method is reached:
// any interface of the standard library (fmt.Stringer, error, http.Handler,
// …, called from code the module does not hold) and any interface of the
// module whose method some caller names (txdb.DB, count.Indexed, …).
//
// Callers are the non-test Go of the module (cmd/, the facade, examples/,
// internal/), the declaring package included, and the _test.go files of
// another package: a name that only its own package's tests reach has no
// caller. The benchmark module is not a caller; what only it reaches is on
// exportAllowlist.
func TestInternalExportsHaveCallers(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	// key names a declared object by its file, line and name (export data
	// has a declaration's line, but not always its name's column); namer
	// says who names a use: the directory of a non-test file, "test:" and
	// the directory of a test file, or "benchmark".
	key := func(obj types.Object) string {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		pos := fset.Position(obj.Pos())
		return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, obj.Name())
	}
	dirOf := func(file string) string {
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return file
		}
		return filepath.ToSlash(rel)
	}
	namer := func(file string) string {
		switch dir := dirOf(file); {
		case dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"):
			return "benchmark"
		case strings.HasSuffix(file, "_test.go"):
			return "test:" + dir
		default:
			return dir
		}
	}
	// note records the uses info holds — of its _test.go files alone, if
	// testsOnly: every identifier that refers to an object, and every field
	// a composite literal sets without naming it.
	uses := map[string]map[string]bool{} // object key → namers
	note := func(info *types.Info, testsOnly bool) {
		use := func(obj types.Object, at token.Pos) {
			file := fset.Position(at).Filename
			if obj.Pkg() == nil || !obj.Exported() || testsOnly && !strings.HasSuffix(file, "_test.go") {
				return
			}
			k := key(obj)
			if uses[k] == nil {
				uses[k] = map[string]bool{}
			}
			uses[k][namer(file)] = true
		}
		for id, obj := range info.Uses {
			use(obj, id.Pos())
		}
		for expr, tv := range info.Types {
			lit, ok := expr.(*ast.CompositeLit)
			st, isStruct := tv.Type.Underlying().(*types.Struct)
			if !ok || !isStruct || len(lit.Elts) == 0 {
				continue
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := range lit.Elts {
					use(st.Field(i), lit.Pos())
				}
			}
		}
	}

	// The program: the module's non-test packages, checked from source as
	// one, the standard library imported from export data.
	listed := goList(t, ".")
	prog := &program{fset: fset, listed: listed, std: exportImporter(fset, listed, nil), done: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	for _, p := range listed {
		if p.ForTest == "" && !p.Standard && !strings.HasSuffix(p.ImportPath, ".test") {
			if _, err := prog.Import(p.ImportPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	note(prog.info, false)
	// Test packages, and the benchmark module, each against export data.
	// A test package is its package's test variant, or the _test package
	// beside it.
	for _, p := range listed {
		path, variant, _ := strings.Cut(p.ImportPath, " ")
		if p.ForTest != "" && variant == "["+p.ForTest+".test]" && (path == p.ForTest || path == p.ForTest+"_test") {
			checkInto(t, fset, listed, p, note, true)
		}
	}
	bench := goList(t, "benchmark")
	for _, p := range bench {
		if namer(filepath.Join(p.Dir, "x.go")) == "benchmark" && !strings.HasSuffix(p.ImportPath, ".test") {
			checkInto(t, fset, bench, p, note, false)
		}
	}

	// Methods reached through an interface: satisfy maps a concrete method's
	// key to the keys of the module's interface methods it satisfies; std
	// holds those that satisfy a standard library one.
	satisfy, std := map[string][]string{}, map[string]bool{}
	for _, im := range prog.implementations() {
		if im.iface.Pkg() == nil || listed[im.iface.Pkg().Path()].Standard {
			std[key(im.method)] = true
		} else {
			satisfy[key(im.method)] = append(satisfy[key(im.method)], key(im.iface))
		}
	}

	// Declarations: the exported objects of internal/.
	type decl struct{ key, name, pos, dir string }
	var decls []decl
	seen := map[string]bool{}
	add := func(obj types.Object, name string) {
		if k := key(obj); obj.Exported() && !seen[k] {
			seen[k] = true
			file := fset.Position(obj.Pos()).Filename
			pos, _ := filepath.Rel(root, k)
			decls = append(decls, decl{k, name, filepath.ToSlash(pos), dirOf(file)})
		}
	}
	for path, pkg := range prog.done {
		dir, ok := strings.CutPrefix(path, "negmine/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			add(obj, dir+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				add(named.Method(i), dir+"."+name+"."+named.Method(i).Name())
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); !f.Embedded() && u.Tag(i) == "" {
						add(f, dir+"."+name+"."+f.Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					add(u.ExplicitMethod(i), dir+"."+name+"."+u.ExplicitMethod(i).Name())
				}
			}
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported declarations in internal/: the walk missed the tree", len(decls))
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
		alive := calledBy(uses[d.key], d.dir) || std[d.key]
		for _, im := range satisfy[d.key] {
			alive = alive || calledBy(uses[im], dirOf(strings.SplitN(im, ":", 2)[0]))
		}
		switch {
		case alive:
		case exportAllowlist[d.name] == "":
			dead = append(dead, d.pos+": "+d.name)
		default:
			excused[d.name] = true
			if exportAllowlist[d.name] == benchOnly && !uses[d.key]["benchmark"] {
				t.Errorf("exportAllowlist excuses %s as benchmark-only, but benchmark/ does not name it", d.name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no code outside its own package's tests reaches it", d)
	}
	for name := range exportAllowlist {
		if !excused[name] {
			t.Errorf("exportAllowlist excuses %s, which is not declared or has a caller: delete the entry", name)
		}
	}
}

// listedPackage is a package as `go list -json` describes it.
type listedPackage struct {
	ImportPath, Dir, Export, ForTest string
	GoFiles                          []string
	ImportMap                        map[string]string
	Standard                         bool
}

// goList lists the packages of the module in dir, their test packages and
// every dependency, each with its export data, by import path (a test
// variant's path says which test it is built for).
func goList(t *testing.T, dir string) map[string]*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,ImportMap,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	listed := map[string]*listedPackage{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := &listedPackage{}
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return listed
		} else if err != nil {
			t.Fatal(err)
		}
		listed[p.ImportPath] = p
	}
}

// exportImporter imports from the export data of listed, an import path
// mapped through importMap first, as the package that imports it was built.
func exportImporter(fset *token.FileSet, listed map[string]*listedPackage, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if id, ok := importMap[path]; ok {
			path = id
		}
		if p := listed[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
}

// checkInto checks p against the export data of the packages it imports and
// notes its uses: of its _test.go files alone, if testsOnly.
func checkInto(t *testing.T, fset *token.FileSet, listed map[string]*listedPackage, p *listedPackage, note func(*types.Info, bool), testsOnly bool) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := check(fset, p, exportImporter(fset, listed, p.ImportMap), info); err != nil {
		t.Fatal(err)
	}
	note(info, testsOnly)
}

// check parses and type-checks p's files, recording into info.
func check(fset *token.FileSet, p *listedPackage, imp types.Importer, info *types.Info) (*types.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path, _, _ := strings.Cut(p.ImportPath, " ")
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
	}
	return pkg, nil
}

// program is the module's non-test packages, type-checked from source into
// one set of objects, so that a type of one package can be tested against an
// interface of another.
type program struct {
	fset   *token.FileSet
	listed map[string]*listedPackage
	std    types.Importer
	done   map[string]*types.Package
	info   *types.Info
}

// Import checks a module package from source, once, or imports a standard
// one.
func (p *program) Import(path string) (*types.Package, error) {
	if pkg := p.done[path]; pkg != nil {
		return pkg, nil
	}
	lp := p.listed[path]
	if lp == nil || lp.Standard {
		return p.std.Import(path)
	}
	pkg, err := check(p.fset, lp, p, p.info)
	p.done[path] = pkg
	return pkg, err
}

// implementation is a method of a module type that satisfies a method of an
// interface.
type implementation struct{ method, iface *types.Func }

// implementations pairs every method of every named module type with the
// interface methods it satisfies: of the interfaces the module declares, the
// ones in the scope of a standard package it imports, error, and every other
// interface type an expression of the module has.
func (p *program) implementations() []implementation {
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var concrete []types.Type
	scan := func(pkg *types.Package, module bool) {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces[iface] = true
			} else if module {
				concrete = append(concrete, types.NewPointer(named))
			}
		}
	}
	for _, pkg := range p.done {
		scan(pkg, true)
		for _, imp := range pkg.Imports() {
			if p.done[imp.Path()] == nil {
				scan(imp, false)
			}
		}
	}
	for _, tv := range p.info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			ifaces[iface] = true
		}
	}
	var out []implementation
	for iface := range ifaces {
		if iface.NumMethods() == 0 || !iface.IsMethodSet() {
			continue
		}
		for _, typ := range concrete {
			if !types.Implements(typ, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name()); obj != nil {
					out = append(out, implementation{obj.(*types.Func), m})
				}
			}
		}
	}
	return out
}

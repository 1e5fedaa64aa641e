package routerless_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests lists identifiers declared in production files under
// internal/ that only tests of another package use, so they cannot move
// into their own package's _test.go files. Each entry names the tests that
// need it.
var keptForTests = map[string]string{
	"mcts.Tree.EdgeStats": "drl TestChooseActionPrunesStaleEdges and search TestSearcherPrunesStaleEdge check which edges a state kept after Select pruned the stale one",
	"tensor.SetSIMD":      "drl TestSearchGolden runs the whole search once per kernel body; rl BenchmarkGreedyEpisode and nn BenchmarkLayerTrain time each body",
	"topo.Loop.Nodes":     "rl's brute-force score oracle (oracle_test.go) and sim TestRingRoutesMatchBestLoop walk a loop's perimeter in traversal order; NewRing reads the grid tables' perimeter lists instead, which allocate nothing",
}

// TestNoUnreferencedInternalCode type-checks every non-test package of this
// module and of the bench module and fails on any identifier declared in a
// non-test file under internal/ that no non-test file references: package-
// level names, methods and struct fields. Code that only tests use belongs
// in the package's _test.go files; code nothing uses is deleted.
//
// A method is exempt when its type satisfies an interface that has a
// method of that name: any interface type written in the checked code, or
// fmt.Stringer, json.Marshaler, json.Unmarshaler and error, which the
// standard library calls implicitly. Embedded fields and fields with a
// struct tag (read by encoding/json) are exempt too. A field that is only
// ever written still counts as referenced.
func TestNoUnreferencedInternalCode(t *testing.T) {
	found := map[string]bool{}
	for _, name := range unreferencedInternal(t) {
		found[name] = true
		if _, ok := keptForTests[name]; !ok {
			t.Errorf("%s is declared in internal/ but no non-test code references it", name)
		}
	}
	for name := range keptForTests {
		if !found[name] {
			t.Errorf("keptForTests entry %s is referenced by production code or gone; drop the entry", name)
		}
	}
}

// srcPackage is one non-test package found under a module root.
type srcPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// unreferencedInternal returns the sorted names ("pkg.Name",
// "pkg.Type.Member") of the internal/ identifiers nothing references.
func unreferencedInternal(t *testing.T) []string {
	fset := token.NewFileSet()
	pkgs := map[string]*srcPackage{}
	for _, mod := range []struct{ dir, path string }{{".", "routerless"}, {"bench", "routerless/bench"}} {
		loadModule(t, fset, mod.dir, mod.path, pkgs)
	}
	// Module packages are checked from source on first import, the
	// standard library comes from export data.
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p, ok := pkgs[path]
		if !ok {
			return std.Import(path)
		}
		if p.pkg != nil {
			return p.pkg, nil
		}
		p.info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
		return pkg, nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// Every interface type the checked code writes, plus the standard ones
	// satisfied implicitly through fmt, encoding/json and errors.
	var ifaces []*types.Interface
	for _, name := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	} {
		p, err := std.Import(name.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(name.name).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	used := map[types.Object]bool{}
	for _, path := range paths {
		p := pkgs[path]
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range p.files {
			markUses(p.info, f, used)
		}
	}

	var out []string
	for _, path := range paths {
		p := pkgs[path]
		if !strings.HasPrefix(path, "routerless/internal/") {
			continue
		}
		short := p.pkg.Name()
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			if !used[obj] {
				out = append(out, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !implementsAny(named, m.Name(), ifaces) {
					out = append(out, short+"."+name+"."+m.Name())
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				// Embedded fields are reached implicitly, and tagged
				// fields through reflection (encoding/json).
				if f.Embedded() || f.Name() == "_" || st.Tag(i) != "" {
					continue
				}
				if !used[f] {
					out = append(out, short+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markUses records every object f's identifiers refer to, except a
// function's references to itself and a method's references to its
// receiver type.
func markUses(info *types.Info, f *ast.File, used map[types.Object]bool) {
	var self, recv types.Object
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			self, recv = info.Defs[n.Name], nil
			if r := self.Type().(*types.Signature).Recv(); r != nil {
				typ := r.Type()
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				recv = typ.(*types.Named).Origin().Obj()
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != self && obj != recv {
				used[obj] = true
			}
		}
		return true
	})
}

// implementsAny reports whether method name of named is part of an
// interface that named or *named satisfies. Generic types are never
// exempt.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// loadModule parses the non-test Go files of every package under dir, the
// root of module modPath, that build for this GOOS/GOARCH. Nested modules
// and testdata directories are skipped.
func loadModule(t *testing.T, fset *token.FileSet, dir, modPath string, pkgs map[string]*srcPackage) {
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if p != dir {
			if strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		sp := &srcPackage{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sp.files = append(sp.files, f)
		}
		pkgs[path] = sp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

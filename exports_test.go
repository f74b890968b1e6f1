package stateflow

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under internal/
// that no non-test Go reaches and that stay anyway, each with the consumer
// it serves: a test harness, or a caller this guard cannot see (it reads
// non-test Go only). Keys are package.Name or package.Type.Name.
var testOnlyExports = map[string]string{
	"sim.Cluster.SetTap":              "harness hook: tests count timers and sends through the tap, which a perturb hook never sees",
	"oracle.Verify":                   "harness hook: the byte-equality oracle the chaos sweeps run",
	"oracle.Workloads":                "harness hook: the catalogue the chaos sweeps run through Verify; its four constructors are reached through it",
	"bench.RunPointFor":               "harness hook: the testing.B harness runs one point through it",
	"interp.EncodeValue":              "harness hook: FuzzDecodeValue round-trips values through it",
	"interp.DecodeValue":              "harness hook: FuzzDecodeValue decodes through it",
	"interp.Encoder.State":            "reference codec: the name-keyed encoding the row, size, fuzz and runtime-diff tests check the Row codec against",
	"interp.Decoder.State":            "reference codec: decodes the name-keyed encoding the Row codec is checked against",
	"interp.EncodedSize":              "reference codec: the name-keyed size the Row codec's pricing is checked against",
	"obs.Tracer.SpanNames":            "harness hook: tests read which spans a run recorded",
	"local.Runtime.EncodeState":       "harness hook: the canonical state bytes the differential tests compare",
	"snapshot.Store.Read":             "harness hook: stateflow's recycling tests read where a stored image lives and the corrupt-snapshot test damages one in place",
	"sysapi.NewIncarnation":           "harness hook: ids from other incarnations can arrive through WithRequestID",
	"stateflow.ShardedSystem.Preload": "benchmark/benchmark_test.go plants a wrong balance through it to prove the benchmark's checker catches one",
	"live.Runtime.Metrics":            "public API: stateflow.Live is live.Runtime, and README documents reading its registry",
	"live.Runtime.MetricsAddr":        "public API: stateflow.Live is live.Runtime, and README documents reading a \":0\" listener's port back through it",
}

// TestInternalExportsHaveACaller keeps test-only surfaces out of internal/:
// every exported function or method declared in a non-test file there must
// be reached by some non-test Go outside its own declaration (cmd/,
// examples/, this package and benchmark/ count), or be on testOnlyExports
// with its reason. An allowlisted name that production code now reaches,
// or that no longer exists, fails too. The tree is type-checked from source
// (the standard library from its export data), so a use is matched to the
// function or method it resolves to: a call of one type's method does not
// count for another type's method of the same name. A method also counts as
// reached when its type satisfies an interface that declares it and whose
// method some code calls, or that the standard library declares (its
// callers are not in this tree: fmt calls String, sort calls Less).
func TestInternalExportsHaveACaller(t *testing.T) {
	type decl struct {
		key        string
		file       string
		name       *ast.Ident
		start, end token.Pos
	}
	const module = "statefulentities.dev/stateflow" // benchmark/ is its module's subpath
	im := &treeImporter{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	var paths []string
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(im.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir = filepath.ToSlash(filepath.Clean(dir)); dir != "." {
			pkg += "/" + dir
		}
		if im.files[pkg] == nil {
			paths = append(paths, pkg)
		}
		im.files[pkg] = append(im.files[pkg], f)
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch x := typ.(type) {
				case *ast.IndexExpr:
					typ = x.X
				case *ast.IndexListExpr:
					typ = x.X
				}
				key += typ.(*ast.Ident).Name + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, path, fn.Name, fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// Every use of a function or method, by what it resolves to, and every
	// interface whose methods are reached dynamically: those some code
	// calls, and the standard library's.
	uses := map[*types.Func][]token.Pos{}
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	var dynamic []ifaceMethod
	for id, obj := range im.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		uses[fn] = append(uses[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				dynamic = append(dynamic, ifaceMethod{iface, fn.Name()})
			}
		}
	}
	dynamic = append(dynamic, ifaceMethod{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error"})
	for _, pkg := range im.stdlib() {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						dynamic = append(dynamic, ifaceMethod{iface, iface.Method(i).Name()})
					}
				}
			}
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); !ok || named.TypeParams().Len() > 0 {
			return false // an uninstantiated generic type implements nothing
		}
		for _, d := range dynamic {
			if d.name == fn.Name() && (types.Implements(typ, d.iface) || types.Implements(types.NewPointer(typ), d.iface)) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		declared[d.key] = true
		fn := im.info.Defs[d.name].(*types.Func)
		called := false
		for _, p := range uses[fn] {
			if p < d.start || p >= d.end {
				called = true
				break
			}
		}
		called = called || satisfies(fn)
		_, allowed := testOnlyExports[d.key]
		switch {
		case !called && !allowed:
			uncalled = append(uncalled, d.key+" ("+d.file+")")
		case called && allowed:
			t.Errorf("testOnlyExports names %s, which non-test Go now reaches: drop its entry", d.key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but only tests reach it: delete it, or add it to testOnlyExports with its reason", u)
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports names %s, which internal/ no longer declares", key)
		}
	}
}

// treeImporter type-checks the tree's packages from their parsed non-test
// files, into one shared Info, and imports everything else — the standard
// library — through std.
type treeImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// Import implements types.Importer.
func (im *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := im.files[path]
	if !ok {
		pkg, err := im.std.Import(path)
		im.pkgs[path] = pkg
		return pkg, err
	}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// stdlib lists every package imported from outside the tree, with the
// packages those import in turn.
func (im *treeImporter) stdlib() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ours := im.files[pkg.Path()]; !ours {
			out = append(out, pkg)
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range im.pkgs {
		walk(pkg)
	}
	return out
}

package stateflow

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	im := checkedTree(t)
	type decl struct {
		key        string
		file       string
		name       *ast.Ident
		start, end token.Pos
	}
	var decls []decl
	for pkg, files := range im.files {
		if !strings.HasPrefix(pkg, module+"/internal/") {
			continue
		}
		for _, f := range files {
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
				decls = append(decls, decl{key + fn.Name.Name, im.fset.Position(f.Pos()).Filename, fn.Name, fn.Pos(), fn.End()})
			}
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

// module is the tree's module path.
const module = "statefulentities.dev/stateflow"

// loadTree parses every non-test Go file in the tree and type-checks it
// from source (benchmark/ is its module's subpath, so it counts too). It
// runs once per test binary; the guards below share its result.
var loadTree = sync.OnceValues(func() (*treeImporter, error) {
	im := &treeImporter{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	var paths []string
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
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
	}
	return im, nil
})

// checkedTree returns the type-checked tree.
func checkedTree(t *testing.T) *treeImporter {
	im, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// writeOnlyFields names the fields under internal/ that no non-test Go
// reads and that stay anyway, each with the reader it serves. Keys are
// package.Type.field.
var writeOnlyFields = map[string]string{
	"snapshot.Meta.Epoch":   "harness record: Store.Begin's epoch argument, which the snapshot tests read back; recovery restores by id",
	"ycsb.Mix.Transfer":     "documentation: Generator.Next draws transfers as the remainder, and TestMixesSumTo100 checks each mix sums to 100",
	"bench.RunPoint.Epochs": "harness hook: TestAllocsPerEpoch divides a RunPointFor run's allocations by the epochs it closed",
	"oracle.Run.Trace":      "harness hook: the determinism tests (trace_diff_test.go, sharded_diff_test.go, chaos_test.go) compare the fault-sensitive observables across reruns",
}

// TestInternalFieldsAreRead keeps state nothing reads out of internal/:
// every field declared in a non-test file there must be read by some
// non-test Go (cmd/, examples/, this package and benchmark/ count), or be
// on writeOnlyFields with its reader. An allowlisted field that gains a
// reader, or that no longer exists, fails too. A read is any use of the
// field, matched by go/types to the field it resolves to, except:
//
//   - an assignment target: x.f = v, x.f[k] = v, x.f += v, x.f++;
//   - the first argument of an append assigned back to the same field:
//     x.f = append(x.f, v);
//   - a key of a composite literal: T{f: v}.
//
// Embedded fields are exempt; the fields they promote are checked. Two
// rules cover reads by reflection: a field of a struct that a function
// passed to obs.Registry.Fields returns (itself or as a slice's element)
// counts as read, and so does a field with a json tag that does not
// say "-".
func TestInternalFieldsAreRead(t *testing.T) {
	im := checkedTree(t)
	info := im.info

	// Every field declared under internal/ but those encoding/json reads,
	// keyed by its named struct type (an anonymous one by its position).
	type decl struct{ key, file string }
	fields := map[*types.Var]decl{}
	for pkg, files := range im.files {
		if !strings.HasPrefix(pkg, module+"/internal/") {
			continue
		}
		for _, f := range files {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name
					}
				case *ast.StructType:
					name, ok := owner[n]
					if !ok {
						name = "struct@" + strconv.Itoa(im.fset.Position(n.Pos()).Line)
					}
					for _, fd := range n.Fields.List {
						if fd.Tag != nil {
							tag, _ := strconv.Unquote(fd.Tag.Value)
							if j := reflect.StructTag(tag).Get("json"); j != "" && j != "-" {
								continue
							}
						}
						for _, id := range fd.Names {
							fields[info.Defs[id].(*types.Var)] = decl{f.Name.Name + "." + name + "." + id.Name, im.fset.Position(f.Pos()).Filename}
						}
					}
				}
				return true
			})
		}
	}

	// written returns the field e assigns to, and the selector naming it:
	// e is x.f or an element x.f[k].
	written := func(e ast.Expr) (*ast.Ident, *types.Var) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					return x.Sel, v
				}
				return nil, nil
			default:
				return nil, nil
			}
		}
	}
	notRead := map[*ast.Ident]bool{} // uses that are not reads
	read := map[*types.Var]bool{}
	for _, files := range im.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, target := written(lhs)
						if target == nil {
							continue
						}
						notRead[sel] = true
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
							fn, _ := ast.Unparen(call.Fun).(*ast.Ident)
							if b, ok := info.Uses[fn].(*types.Builtin); ok && b.Name() == "append" {
								if sel, v := written(call.Args[0]); v == target {
									notRead[sel] = true
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, v := written(n.X); v != nil {
						notRead[sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							notRead[id] = true
						}
					}
				case *ast.CallExpr:
					// obs.Registry.Fields(prefix, func() any { return s }):
					// reflection reads every field of s's struct type.
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || len(n.Args) != 2 {
						break
					}
					if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.FullName() != "(*statefulentities.dev/stateflow/internal/obs.Registry).Fields" {
						break
					}
					ast.Inspect(n.Args[1], func(n ast.Node) bool {
						if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
							typ := info.Types[ret.Results[0]].Type
							if s, ok := typ.(*types.Slice); ok {
								typ = s.Elem()
							}
							if st, ok := typ.Underlying().(*types.Struct); ok {
								for i := range st.NumFields() {
									read[st.Field(i).Origin()] = true
								}
							}
						}
						return true
					})
				}
				return true
			})
		}
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !notRead[id] {
			read[v.Origin()] = true
		}
	}

	declared := map[string]bool{}
	var unread []string
	for v, d := range fields {
		declared[d.key] = true
		_, allowed := writeOnlyFields[d.key]
		switch {
		case !read[v] && !allowed:
			unread = append(unread, d.key+" ("+d.file+")")
		case read[v] && allowed:
			t.Errorf("writeOnlyFields names %s, which non-test Go now reads: drop its entry", d.key)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is never read outside tests: delete it with what fills it, or add it to writeOnlyFields with its reader", u)
	}
	for key := range writeOnlyFields {
		if !declared[key] {
			t.Errorf("writeOnlyFields names %s, which internal/ no longer declares", key)
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

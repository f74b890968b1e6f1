package stateflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under internal/
// that no non-test Go reaches and that stay anyway, each with the test
// harness it serves. Keys are package.Name or package.Type.Name.
var testOnlyExports = map[string]string{
	"sim.Cluster.SetTap":        "harness hook: tests count timers and sends through the tap, which a perturb hook never sees",
	"oracle.Verify":             "harness hook: the byte-equality oracle the chaos sweeps run",
	"bench.RunPointFor":         "harness hook: the testing.B harness runs one point through it",
	"interp.EncodeValue":        "harness hook: FuzzDecodeValue round-trips values through it",
	"interp.DecodeValue":        "harness hook: FuzzDecodeValue decodes through it",
	"obs.Tracer.SpanNames":      "harness hook: tests read which spans a run recorded",
	"local.Runtime.EncodeState": "harness hook: the canonical state bytes the differential tests compare",
	"sysapi.NewIncarnation":     "harness hook: ids from other incarnations can arrive through WithRequestID",
}

// TestInternalExportsHaveACaller keeps test-only surfaces out of internal/:
// every exported function or method declared in a non-test file there must
// be named by some non-test Go outside its own declaration (cmd/,
// examples/, this package and benchmark/ count), or be on testOnlyExports
// with its reason. An allowlisted name that production code now reaches,
// or that no longer exists, fails too. Names are matched as identifiers,
// without types, so a function whose name some other used identifier
// shares (a method, a type, a field) counts as used.
func TestInternalExportsHaveACaller(t *testing.T) {
	type decl struct {
		key        string
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A function's own name at its declaration is no use, nor is
		// another function's declaration of the same name.
		declName := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declName[x.Name] = true
			case *ast.Ident:
				if !declName[x] {
					uses[x.Name] = append(uses[x.Name], x.Pos())
				}
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
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
			decls = append(decls, decl{key + fn.Name.Name, path, fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		called := false
		for _, p := range uses[name] {
			if p < d.start || p >= d.end {
				called = true
				break
			}
		}
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

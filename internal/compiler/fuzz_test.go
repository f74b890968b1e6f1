package compiler_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	adversarial "statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// exampleSources returns the DSL program each example under examples/
// compiles: the string constant named source in its main.go (the tpcc
// example compiles tpcc.Program() and has none).
func exampleSources(t testing.TB) []string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	var out []string
	for _, path := range files {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Values) != 1 || spec.Names[0].Name != "source" {
				return true
			}
			src, err := strconv.Unquote(spec.Values[0].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, src)
			return false
		})
	}
	return out
}

// FuzzCompile feeds arbitrary text to the one parser in this repository
// that takes what a user typed: lexer, parser, type checker, function
// splitting and layout assignment must hand back a program or an error,
// whatever the text. The corpus is every DSL source in the tree, so the
// seed run (part of go test) also checks that each of them still compiles.
func FuzzCompile(f *testing.F) {
	seeds := append(exampleSources(f), ycsb.Program(), tpcc.Program(), adversarial.Program())
	for _, src := range seeds {
		if _, err := compiler.Compile(src); err != nil {
			f.Fatalf("a program shipped in the tree does not compile: %v", err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := compiler.Compile(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
		if err != nil {
			return
		}
		if ls := prog.Layouts(); len(ls.ByID) != len(prog.Operators) {
			t.Fatalf("%d layouts for %d operators", len(ls.ByID), len(prog.Operators))
		}
	})
}

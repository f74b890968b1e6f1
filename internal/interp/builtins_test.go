package interp

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/types"
)

// TestBuiltinTable holds one row per entry of the builtin table: a
// well-typed call, which the checker stamps with that entry and the
// interpreter runs to the row's result (rendered by str), and the same
// call with one argument too many (one too few for min and max, which take
// any number), which the checker rejects.
func TestBuiltinTable(t *testing.T) {
	const setup = "xs: list[int] = [1, 2]\nd: dict[str, int] = {\"a\": 1, \"b\": 2}\n"
	rows := []struct {
		id         int
		call, want string
	}{
		{types.FnLen, `len("héllo")`, "5"},
		{types.FnStr, "str(42)", "42"},
		{types.FnInt, `int(" 7 ")`, "7"},
		{types.FnFloat, "float(2)", "2"},
		{types.FnBool, `bool("")`, "False"},
		{types.FnAbs, "abs(0 - 2.5)", "2.5"},
		{types.FnMin, "min(3, 2.5, 4)", "2.5"},
		{types.FnMax, `max("b", "c", "a")`, "c"},
		{types.FnRange, "range(2, 5)", "[2, 3, 4]"},
		{types.ListAppend, "xs.append(3)", "None"},
		{types.ListPop, "xs.pop(0)", "1"},
		{types.DictGet, `d.get("z", 9)`, "9"},
		{types.DictKeys, "d.keys()", `["a", "b"]`},
		{types.DictValues, "d.values()", "[1, 2]"},
		{types.StrUpper, `"Ab".upper()`, "AB"},
		{types.StrLower, `"Ab".lower()`, "ab"},
		{types.StrStrip, `" a ".strip()`, "a"},
	}
	covered := map[int]bool{}
	for _, r := range rows {
		b := &types.Builtins[r.id]
		t.Run(b.Name, func(t *testing.T) {
			covered[r.id] = true
			in, m, layout := compileM(t, setup+"return str("+r.call+")")
			if !stamped(m.Body, r.id) {
				t.Fatalf("%s: no call carries the stamp of entry %d", r.call, r.id)
			}
			got, err := runM(in, m, RowFromMap(layout, MapState{"k": StrV("k")}))
			if err != nil || got.Str() != r.want {
				t.Fatalf("%s = %v (error %v), want %s", r.call, got, err, r.want)
			}
			bad := strings.TrimSuffix(r.call, ")") + ", 1)"
			if strings.HasSuffix(r.call, "()") {
				bad = strings.TrimSuffix(r.call, ")") + "1)"
			}
			if b.Max < 0 {
				bad = b.Name + "(1)"
			}
			if _, err := compiler.Compile(checkSrc(setup + "return str(" + bad + ")")); err == nil || !strings.Contains(err.Error(), "argument") {
				t.Fatalf("%s: want an arity error, got %v", bad, err)
			}
		})
	}
	for id, b := range types.Builtins {
		if !covered[id] {
			t.Errorf("builtin %s (entry %d) has no row", b.Name, id)
		}
	}
}

// checkSrc is entity C with method `def m(self) -> str` of the given body.
func checkSrc(body string) string {
	return "@entity\nclass C:\n    def __init__(self, k: str):\n        self.k: str = k\n    def __key__(self) -> str:\n        return self.k\n    def m(self) -> str:\n        " +
		strings.ReplaceAll(body, "\n", "\n        ") + "\n"
}

// stamped reports whether some call in stmts carries entry id's stamp.
func stamped(stmts []ast.Stmt, id int) bool {
	found := false
	ast.WalkStmts(stmts, func(s ast.Stmt) {
		for _, e := range ast.ExprsOf(s) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				if c, ok := x.(*ast.Call); ok && c.Builtin == id+1 {
					found = true
				}
				return true
			})
		}
	})
	return found
}

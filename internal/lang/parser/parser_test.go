package parser

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/token"
)

// figure1 is the paper's running example (Figure 1), adapted to the DSL.
const figure1 = `
@entity
class Item:
    def __init__(self, item_id: str, price: int):
        self.item_id: str = item_id
        self.stock: int = 0
        self.price: int = price

    def __key__(self) -> str:
        return self.item_id

    def get_price(self) -> int:
        return self.price

    def update_stock(self, amount: int) -> bool:
        self.stock += amount
        return self.stock >= 0

@entity
class User:
    def __init__(self, username: str):
        self.username: str = username
        self.balance: int = 100

    def __key__(self) -> str:
        return self.username

    @transactional
    def buy_item(self, amount: int, item: Item) -> bool:
        total_price: int = amount * item.get_price()
        if self.balance < total_price:
            return False
        available: bool = item.update_stock(0 - amount)
        if not available:
            item.update_stock(amount)
            return False
        self.balance -= total_price
        return True
`

func TestParseFigure1(t *testing.T) {
	mod, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(mod.Classes) != 2 {
		t.Fatalf("classes: got %d, want 2", len(mod.Classes))
	}
	item, user := mod.Classes[0], mod.Classes[1]
	if item.Name != "Item" || !item.IsEntity() {
		t.Fatalf("Item missing or not entity")
	}
	if len(item.Methods) != 4 {
		t.Fatalf("Item methods: got %d, want 4", len(item.Methods))
	}
	buy := user.Methods[2]
	if user.Name != "User" || buy.Name != "buy_item" {
		t.Fatalf("%s.%s in buy_item's place", user.Name, buy.Name)
	}
	if !buy.IsTransactional() {
		t.Fatal("buy_item should be @transactional")
	}
	if len(buy.Params) != 2 {
		t.Fatalf("buy_item params: %d", len(buy.Params))
	}
	if buy.Params[1].Type.Name != "Item" {
		t.Fatalf("second param type: %s", buy.Params[1].Type)
	}
	if buy.Returns == nil || buy.Returns.Name != "bool" {
		t.Fatalf("return type: %v", buy.Returns)
	}
	if len(buy.Body) != 6 {
		t.Fatalf("buy_item body statements: got %d, want 6", len(buy.Body))
	}
}

func parseOne(t *testing.T, body string) *ast.FuncDef {
	t.Helper()
	src := "@entity\nclass C:\n    def __init__(self, k: str):\n        self.k: str = k\n    def __key__(self) -> str:\n        return self.k\n    def m(self) -> int:\n"
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		src += "        " + line + "\n"
	}
	mod, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return mod.Classes[0].Methods[2] // C.m, after __init__ and __key__
}

func TestPrecedence(t *testing.T) {
	fn := parseOne(t, "return 1 + 2 * 3")
	ret := fn.Body[0].(*ast.ReturnStmt)
	bin := ret.Value.(*ast.BinOp)
	if bin.Op != token.PLUS {
		t.Fatalf("top op: %s", bin.Op)
	}
	right := bin.Right.(*ast.BinOp)
	if right.Op != token.STAR {
		t.Fatalf("right op: %s", right.Op)
	}
}

func TestComparisonAndBool(t *testing.T) {
	fn := parseOne(t, "x = 1 < 2 and 3 >= 4 or not True\nreturn 0")
	as := fn.Body[0].(*ast.AssignStmt)
	or := as.Value.(*ast.BinOp)
	if or.Op != token.KwOr {
		t.Fatalf("top: %s", or.Op)
	}
	and := or.Left.(*ast.BinOp)
	if and.Op != token.KwAnd {
		t.Fatalf("left: %s", and.Op)
	}
	if _, ok := or.Right.(*ast.UnaryOp); !ok {
		t.Fatalf("right should be unary not")
	}
}

func TestElifDesugar(t *testing.T) {
	fn := parseOne(t, "if 1 < 2:\n    x = 1\nelif 2 < 3:\n    x = 2\nelse:\n    x = 3\nreturn 0")
	ifs := fn.Body[0].(*ast.IfStmt)
	if len(ifs.Else) != 1 {
		t.Fatalf("elif should nest: %d", len(ifs.Else))
	}
	inner, ok := ifs.Else[0].(*ast.IfStmt)
	if !ok {
		t.Fatal("elif not desugared to nested if")
	}
	if len(inner.Else) != 1 {
		t.Fatalf("inner else: %d", len(inner.Else))
	}
}

func TestForAndWhile(t *testing.T) {
	fn := parseOne(t, "total = 0\nfor x in [1, 2, 3]:\n    total += x\nwhile total > 0:\n    total -= 1\nreturn total")
	if _, ok := fn.Body[1].(*ast.ForStmt); !ok {
		t.Fatalf("want for, got %T", fn.Body[1])
	}
	w, ok := fn.Body[2].(*ast.WhileStmt)
	if !ok {
		t.Fatalf("want while, got %T", fn.Body[2])
	}
	if len(w.Body) != 1 {
		t.Fatalf("while body: %d", len(w.Body))
	}
}

func TestMethodCallChain(t *testing.T) {
	fn := parseOne(t, "return self.k.upper()")
	ret := fn.Body[0].(*ast.ReturnStmt)
	call := ret.Value.(*ast.Call)
	if call.Func != "upper" {
		t.Fatalf("func: %s", call.Func)
	}
	if _, ok := call.Recv.(*ast.Attr); !ok {
		t.Fatalf("recv: %T", call.Recv)
	}
}

func TestIndexing(t *testing.T) {
	fn := parseOne(t, "xs = [10, 20]\nreturn xs[1]")
	ret := fn.Body[1].(*ast.ReturnStmt)
	if _, ok := ret.Value.(*ast.Index); !ok {
		t.Fatalf("want index, got %T", ret.Value)
	}
}

func TestDictLiteral(t *testing.T) {
	fn := parseOne(t, "d = {\"a\": 1, \"b\": 2}\nreturn d[\"a\"]")
	as := fn.Body[0].(*ast.AssignStmt)
	d := as.Value.(*ast.DictLit)
	if len(d.Keys) != 2 {
		t.Fatalf("dict keys: %d", len(d.Keys))
	}
}

func TestAnnotatedAssign(t *testing.T) {
	fn := parseOne(t, "x: int = 5\nreturn x")
	as := fn.Body[0].(*ast.AssignStmt)
	if as.Type == nil || as.Type.Name != "int" {
		t.Fatalf("annotation: %v", as.Type)
	}
}

func TestListTypeAnnotation(t *testing.T) {
	src := `
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
        self.xs: list[int] = []
    def __key__(self) -> str:
        return self.k
    def m(self, ys: list[str]) -> int:
        return len(ys)
`
	mod, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mod.Classes[0].Methods[2]
	if m.Params[0].Type.Name != "list" || m.Params[0].Type.Args[0].Name != "str" {
		t.Fatalf("param type: %s", m.Params[0].Type)
	}
}

func TestErrorMissingSelf(t *testing.T) {
	src := "class C:\n    def m() -> int:\n        return 1\n"
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("want self error, got %v", err)
	}
}

func TestErrorUntypedParam(t *testing.T) {
	src := "class C:\n    def m(self, x) -> int:\n        return x\n"
	if _, err := Parse(src); err == nil {
		t.Fatal("want type-hint error")
	}
}

func TestErrorBadAssignTarget(t *testing.T) {
	src := "class C:\n    def m(self) -> int:\n        1 = 2\n        return 1\n"
	if _, err := Parse(src); err == nil {
		t.Fatal("want assignment-target error")
	}
}

func TestErrorEmptyBlock(t *testing.T) {
	src := "class C:\n    def m(self) -> int:\n"
	if _, err := Parse(src); err == nil {
		t.Fatal("want empty-block error")
	}
}

func TestReturnBare(t *testing.T) {
	fn := parseOne(t, "return")
	ret := fn.Body[0].(*ast.ReturnStmt)
	if ret.Value != nil {
		t.Fatal("bare return should have nil value")
	}
}

func TestParenGrouping(t *testing.T) {
	fn := parseOne(t, "return (1 + 2) * 3")
	ret := fn.Body[0].(*ast.ReturnStmt)
	bin := ret.Value.(*ast.BinOp)
	if bin.Op != token.STAR {
		t.Fatalf("top op: %s", bin.Op)
	}
}

func TestConstructorCall(t *testing.T) {
	fn := parseOne(t, "it = Other(\"k\")\nreturn 1")
	as := fn.Body[0].(*ast.AssignStmt)
	call := as.Value.(*ast.Call)
	if call.Recv != nil || call.Func != "Other" {
		t.Fatalf("ctor call: %+v", call)
	}
}

func TestBreakContinuePass(t *testing.T) {
	fn := parseOne(t, "while True:\n    if 1 < 2:\n        break\n    continue\npass\nreturn 0")
	w := fn.Body[0].(*ast.WhileStmt)
	ifs := w.Body[0].(*ast.IfStmt)
	if _, ok := ifs.Then[0].(*ast.BreakStmt); !ok {
		t.Fatal("break missing")
	}
	if _, ok := w.Body[1].(*ast.ContinueStmt); !ok {
		t.Fatal("continue missing")
	}
	if _, ok := fn.Body[1].(*ast.PassStmt); !ok {
		t.Fatal("pass missing")
	}
}

package types

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/parser"
)

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

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(mod)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

func TestFigure1Checks(t *testing.T) {
	info := mustCheck(t, figure1)
	item := info.Classes["Item"]
	if item.KeyAttr != "item_id" {
		t.Fatalf("Item key attr: %s", item.KeyAttr)
	}
	if len(item.Attrs) != 3 {
		t.Fatalf("Item attrs: %d", len(item.Attrs))
	}
	user := info.Classes["User"]
	buy := user.Methods["buy_item"]
	if !buy.Transactional {
		t.Fatal("buy_item should be transactional")
	}
	// The locals' inferred types, read back from the error a later
	// assignment of a str to each draws.
	for local, want := range map[string]string{"total_price": "int", "item": "Item"} {
		src := strings.Replace(figure1, "        return True\n", "        "+local+" = \"x\"\n        return True\n", 1)
		if _, err := check(t, src); err == nil || !strings.Contains(err.Error(), "to "+local+" (previously "+want+")") {
			t.Fatalf("%s type: assigning a str draws %v, want it named %s", local, err, want)
		}
	}
}

func TestRemoteCallResolution(t *testing.T) {
	info := mustCheck(t, figure1)
	var remote, local int
	for _, tgt := range info.Calls {
		if tgt.Remote {
			remote++
		} else {
			local++
		}
	}
	if remote != 3 {
		t.Fatalf("remote calls: got %d, want 3 (get_price + 2x update_stock)", remote)
	}
}

const header = `
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
        self.n: int = 0
    def __key__(self) -> str:
        return self.k
`

func TestMissingKey(t *testing.T) {
	wantErr(t, `
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
`, "__key__")
}

func TestMissingInit(t *testing.T) {
	wantErr(t, `
@entity
class C:
    def __key__(self) -> str:
        return self.k
`, "__init__")
}

func TestKeyMustBeAttr(t *testing.T) {
	wantErr(t, `
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return "constant"
`, "__key__")
}

func TestKeyImmutable(t *testing.T) {
	wantErr(t, header+`
    def rename(self, nk: str) -> bool:
        self.k = nk
        return True
`, "immutable")
}

func TestRecursionRejected(t *testing.T) {
	wantErr(t, header+`
    def fact(self, n: int) -> int:
        if n <= 1:
            return 1
        return n * self.fact(n - 1)
`, "recursive")
}

func TestMutualRecursionRejected(t *testing.T) {
	wantErr(t, header+`
    def a(self, n: int) -> int:
        return self.b(n)
    def b(self, n: int) -> int:
        return self.a(n)
`, "recursive")
}

func TestCrossEntityRecursionRejected(t *testing.T) {
	wantErr(t, `
@entity
class A:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def ping(self, other: B) -> int:
        return other.pong(self)

@entity
class B:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def pong(self, other: A) -> int:
        return other.ping(self)
`, "recursive")
}

func TestUndefinedVariable(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        return missing
`, "undefined variable")
}

func TestUnknownAttribute(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        return self.nope
`, "no attribute")
}

func TestAttrAnnotationRequired(t *testing.T) {
	wantErr(t, `
@entity
class C:
    def __init__(self, k: str):
        self.k = k
    def __key__(self) -> str:
        return self.k
`, "type annotation")
}

func TestEntityRefNotStorable(t *testing.T) {
	wantErr(t, `
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k

@entity
class C:
    def __init__(self, k: str, d: D):
        self.k: str = k
        self.d: D = d
    def __key__(self) -> str:
        return self.k
`, "serializable")
}

// logHeader is an entity with a list[int] attribute.
const logHeader = `
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
        self.items: list[int] = []
    def __key__(self) -> str:
        return self.k
`

// TestEntityRefNeverFlowsIntoAny: an entity reference never enters a
// container of unknown element type, which state could then hold (§2.2) —
// by concatenation, by append, or by a subscript store.
func TestEntityRefNeverFlowsIntoAny(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"concatenation", `
        self.items = [] + [self]`, "requires numbers"},
		{"append", `
        xs = []
        xs.append(self)
        self.items = xs`, "cannot append C"},
		{"subscript store", `
        d = {}
        d["a"] = self`, "cannot store C"},
		{"list literal", `
        xs = []
        ys = [xs[0], self]`, "share one type"},
		{"dict get default", `
        d = {}
        e = d.get("a", self)`, "default must be any"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantErr(t, logHeader+"    def m(self) -> int:"+tc.body+"\n        return 0\n", tc.want)
		})
	}
}

// TestBuiltinArgumentRules: the builtin table's argument rules reject at
// check time what the interpreter would run to a wrong answer or an error.
func TestBuiltinArgumentRules(t *testing.T) {
	for _, tc := range []struct{ expr, want string }{
		{"len(range(2.5))", "range: needs int arguments, got float"},
		{`len(range("abc"))`, "range: needs int arguments, got str"},
		{`len({"a": 1}.keys(1))`, "keys takes no arguments, got 1"},
		{`len({"a": 1}.values(1))`, "values takes no arguments, got 1"},
		{`len(str(min(1, "a")))`, "min: cannot compare numbers with str"},
		{`len(str(max(True, False)))`, "max: cannot compare bool"},
		{`abs("a")`, "abs: needs a number, got str"},
		{`len([1].pop("a"))`, "pop: index must be int"},
		{`len(str({"a": 1}.get(1, 0)))`, "get: key must be str"},
	} {
		t.Run(tc.expr, func(t *testing.T) {
			wantErr(t, header+"    def m(self) -> int:\n        return "+tc.expr+"\n", tc.want)
		})
	}
	// Mixed numbers stay legal, and make a float.
	mustCheck(t, header+`
    def m(self) -> float:
        return max(3, 2.5) + min(1, 2)
`)
	wantErr(t, header+`
    def m(self) -> int:
        return max(3, 2.5)
`, "returns float but declares int")
}

func TestReturnTypeMismatch(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        return "nope"
`, "declares int")
}

func TestArgCountMismatch(t *testing.T) {
	wantErr(t, header+`
    def one(self, x: int) -> int:
        return x
    def m(self) -> int:
        return self.one(1, 2)
`, "expects 1 arguments")
}

func TestArgTypeMismatch(t *testing.T) {
	wantErr(t, header+`
    def one(self, x: int) -> int:
        return x
    def m(self) -> int:
        return self.one("s")
`, "cannot use str")
}

func TestRemoteAttrAccessRejected(t *testing.T) {
	wantErr(t, `
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
        self.v: int = 0
    def __key__(self) -> str:
        return self.k

@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def m(self, d: D) -> int:
        return d.v
`, "remote entity")
}

func TestConditionMustBeBool(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        if 1:
            return 1
        return 0
`, "must be bool")
}

func TestForOverNonList(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        for x in 5:
            pass
        return 0
`, "iterate over lists")
}

func TestNumericWidening(t *testing.T) {
	mustCheck(t, header+`
    def m(self) -> float:
        x: float = 1
        return x + 2
`)
}

func TestDivisionIsFloat(t *testing.T) {
	info := mustCheck(t, header+`
    def m(self) -> float:
        return 4 / 2
`)
	m := info.Classes["C"].Methods["m"]
	if m.Returns != Float {
		t.Fatalf("returns: %s", m.Returns)
	}
}

func TestListOps(t *testing.T) {
	mustCheck(t, header+`
    def m(self) -> int:
        xs: list[int] = [1, 2, 3]
        xs.append(4)
        total: int = 0
        for x in xs:
            total += x
        return total + len(xs) + xs[0]
`)
}

func TestDictOps(t *testing.T) {
	mustCheck(t, header+`
    def m(self) -> int:
        d: dict[str, int] = {"a": 1}
        d["b"] = 2
        if "a" in d:
            return d["a"]
        return d.get("c", 0)
`)
}

func TestStrConcatAndCompare(t *testing.T) {
	mustCheck(t, header+`
    def m(self) -> str:
        a: str = "x" + "y"
        if a < "z":
            return a
        return str(1)
`)
}

func TestBuiltins(t *testing.T) {
	mustCheck(t, header+`
    def m(self) -> int:
        a: int = abs(0 - 5)
        b: int = min(1, 2)
        c: int = max(3, 4)
        d: int = int(1.5)
        e: float = float(2)
        f: bool = bool(1)
        xs: list[int] = range(10)
        return a + b + c + d + len(xs)
`)
}

func TestUnknownFunction(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        return frobnicate(1)
`, "unknown function")
}

func TestCtorResolved(t *testing.T) {
	info := mustCheck(t, `
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k

@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def mk(self, name: str) -> bool:
        d: D = D(name)
        return True
`)
	var sawCtor bool
	for _, tgt := range info.Calls {
		if tgt.Ctor && tgt.Class == "D" {
			sawCtor = true
		}
	}
	if !sawCtor {
		t.Fatal("constructor call not resolved")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[string]*Type{
		"int":            Int,
		"list[int]":      ListOf(Int),
		"dict[str, int]": DictOf(Str, Int),
		"Item":           EntityOf("Item"),
		"None":           None,
	}
	for want, ty := range cases {
		if got := ty.String(); got != want {
			t.Errorf("String(): got %s want %s", got, want)
		}
	}
}

func TestNonEntityClassAllowed(t *testing.T) {
	// Classes without @entity are plain classes; they may be checked but
	// are not required to define __key__.
	mustCheck(t, `
class Helper:
    def __init__(self, k: str):
        self.k: str = k
    def m(self) -> str:
        return self.k
`)
}

func TestDuplicateClass(t *testing.T) {
	wantErr(t, header+"\n"+header, "duplicate class")
}

func TestDuplicateMethod(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        return 1
    def m(self) -> int:
        return 2
`, "duplicate method")
}

func TestVarTypeConflict(t *testing.T) {
	wantErr(t, header+`
    def m(self) -> int:
        x: int = 1
        x = "s"
        return x
`, "cannot assign str")
}

func TestWalkRemoteCallsInControlFlow(t *testing.T) {
	info := mustCheck(t, `
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
        self.v: int = 0
    def __key__(self) -> str:
        return self.k
    def bump(self) -> int:
        self.v += 1
        return self.v

@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def m(self, d: D, xs: list[int]) -> int:
        total: int = 0
        for x in xs:
            total += d.bump()
        if total > 10:
            total += d.bump()
        return total
`)
	remote := 0
	ast.WalkStmts(info.Classes["C"].Methods["m"].Def.Body, func(s ast.Stmt) {
		for _, e := range ast.ExprsOf(s) {
			ast.WalkExpr(e, func(x ast.Expr) bool {
				if call, ok := x.(*ast.Call); ok && info.Calls[call].Remote {
					remote++
				}
				return true
			})
		}
	})
	if remote != 2 {
		t.Fatalf("remote calls resolved in control flow: got %d, want 2", remote)
	}
}

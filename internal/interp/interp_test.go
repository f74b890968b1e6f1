package interp

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/token"
)

// compileM compiles entity C, whose method `def m(self) -> T` has the given
// body, with T the first return type the checker accepts.
func compileM(t *testing.T, body string) (*Interp, *ir.Method, *ir.ClassLayout) {
	t.Helper()
	var prog *ir.Program
	var err error
	for _, ret := range []string{"int", "float", "str", "bool"} {
		src := "@entity\nclass C:\n    def __init__(self, k: str):\n        self.k: str = k\n        self.n: int = 0\n        self.xs: list[int] = []\n    def __key__(self) -> str:\n        return self.k\n    def m(self) -> " + ret + ":\n"
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			src += "        " + line + "\n"
		}
		if prog, err = compiler.Compile(src); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, body)
	}
	return New(prog), prog.Operator("C").Method("m"), prog.Layouts().LayoutOf("C")
}

// runM runs m's statements the way the runtimes do: over a frame of m's
// layout and the given state of entity C<k>.
func runM(in *Interp, m *ir.Method, st State) (Value, error) {
	fr := &frame{class: "C", key: "k"}
	c, v, err := in.execStmts(m.Body, fr, newFrame(m.Frame), st)
	if err != nil {
		return None, err
	}
	if c == ctrlReturn {
		return v, nil
	}
	return None, nil
}

// evalSrc runs the body of m over a row of C's layout holding st, and
// copies the row's attributes back into st (when given).
func evalSrc(t *testing.T, body string, st MapState) (Value, error) {
	t.Helper()
	in, m, layout := compileM(t, body)
	row := RowFromMap(layout, st)
	v, err := runM(in, m, row)
	if st != nil {
		for k, a := range row.CloneMap() {
			st[k] = a
		}
	}
	return v, err
}

func mustEval(t *testing.T, body string) Value {
	t.Helper()
	v, err := evalSrc(t, body, nil)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{"1 + 2", IntV(3)},
		{"7 - 10", IntV(-3)},
		{"6 * 7", IntV(42)},
		{"7 / 2", FloatV(3.5)},
		{"7 // 2", IntV(3)},
		{"0 - 7 // 2", IntV(-3)}, // -(7//2)
		{"(0 - 7) // 2", IntV(-4)},
		{"7 % 3", IntV(1)},
		{"(0 - 7) % 3", IntV(2)}, // Python modulo
		{"1.5 + 1", FloatV(2.5)},
		{"2 * 1.5", FloatV(3.0)},
	}
	for _, c := range cases {
		got := mustEval(t, "return "+c.expr)
		if !got.Equal(c.want) {
			t.Errorf("%s: got %v want %v", c.expr, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, expr := range []string{"1 / 0", "1 // 0", "1 % 0"} {
		if _, err := evalSrc(t, "return "+expr, nil); err == nil {
			t.Errorf("%s: expected error", expr)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":              true,
		"2 <= 2":             true,
		"3 > 4":              false,
		"4 >= 4":             true,
		"1 == 1.0":           true,
		"1 != 2":             true,
		"\"a\" < \"b\"":      true,
		"\"abc\" == \"abc\"": true,
	}
	for expr, want := range cases {
		got := mustEval(t, "x: bool = "+expr+"\nif x:\n    return 1\nreturn 0")
		if (got.I == 1) != want {
			t.Errorf("%s: got %v want %v", expr, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// `1 / 0` must never evaluate thanks to short-circuiting.
	v, err := evalSrc(t, "a: bool = False\nif a and 1 / 0 > 0:\n    return 1\nreturn 0", nil)
	if err != nil {
		t.Fatalf("and should short-circuit: %v", err)
	}
	if v.I != 0 {
		t.Fatalf("got %v", v)
	}
	v, err = evalSrc(t, "a: bool = True\nif a or 1 / 0 > 0:\n    return 1\nreturn 0", nil)
	if err != nil {
		t.Fatalf("or should short-circuit: %v", err)
	}
	if v.I != 1 {
		t.Fatalf("got %v", v)
	}
}

func TestStringOps(t *testing.T) {
	if got := mustEval(t, `return len("hello" + " " + "world")`); got.I != 11 {
		t.Fatalf("concat+len: %v", got)
	}
	v, _ := evalSrc(t, `s: str = "HeLLo"
if "eL" in s:
    return 1
return 0`, nil)
	if v.I != 1 {
		t.Fatalf("in: %v", v)
	}
}

func TestListSemantics(t *testing.T) {
	// Lists alias like Python.
	got := mustEval(t, `a: list[int] = [1]
b: list[int] = a
b.append(2)
return len(a)`)
	if got.I != 2 {
		t.Fatalf("aliasing: %v", got)
	}
}

func TestListIndexNegative(t *testing.T) {
	got := mustEval(t, "xs: list[int] = [10, 20, 30]\nreturn xs[0 - 1]")
	if got.I != 30 {
		t.Fatalf("negative index: %v", got)
	}
}

func TestListPop(t *testing.T) {
	got := mustEval(t, "xs: list[int] = [10, 20, 30]\ny: int = xs.pop()\nreturn y + len(xs) * 100")
	if got.I != 30+200 {
		t.Fatalf("pop: %v", got)
	}
	got = mustEval(t, "xs: list[int] = [10, 20, 30]\ny: int = xs.pop(0)\nreturn y + xs[0]")
	if got.I != 10+20 {
		t.Fatalf("pop(0): %v", got)
	}
}

func TestDictOps(t *testing.T) {
	got := mustEval(t, `d: dict[str, int] = {"a": 1}
d["b"] = 2
x: int = d.get("c", 99)
if "a" in d:
    return d["a"] + d["b"] + x
return 0`)
	if got.I != 1+2+99 {
		t.Fatalf("dict: %v", got)
	}
}

func TestDictKeyError(t *testing.T) {
	if _, err := evalSrc(t, `d: dict[str, int] = {}
return d["missing"]`, nil); err == nil || !strings.Contains(err.Error(), "key error") {
		t.Fatalf("want key error, got %v", err)
	}
}

func TestForLoopInline(t *testing.T) {
	got := mustEval(t, `total: int = 0
for x in [1, 2, 3, 4]:
    if x == 3:
        continue
    total += x
return total`)
	if got.I != 7 {
		t.Fatalf("for/continue: %v", got)
	}
}

func TestWhileBreakInline(t *testing.T) {
	got := mustEval(t, `n: int = 0
while True:
    n += 1
    if n >= 5:
        break
return n`)
	if got.I != 5 {
		t.Fatalf("while/break: %v", got)
	}
}

func TestNestedLoopBreak(t *testing.T) {
	got := mustEval(t, `hits: int = 0
for i in range(3):
    for j in range(10):
        if j >= 2:
            break
        hits += 1
return hits`)
	if got.I != 6 {
		t.Fatalf("nested break: %v", got)
	}
}

func TestRangeBuiltin(t *testing.T) {
	got := mustEval(t, "xs: list[int] = range(2, 6)\nreturn len(xs) * 100 + xs[0] * 10 + xs[3]")
	if got.I != 4*100+2*10+5 {
		t.Fatalf("range: %v", got)
	}
}

func TestBuiltinConversions(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{`int("42")`, IntV(42)},
		{"int(3.9)", IntV(3)},
		{"float(2)", FloatV(2)},
		{`str(42)`, StrV("42")},
		{"abs(0 - 5)", IntV(5)},
		{"min(3, 1, 2)", IntV(1)},
		{"max(3, 1, 2)", IntV(3)},
		{"bool(0)", BoolV(false)},
	}
	for _, c := range cases {
		got := mustEval(t, "return "+c.expr)
		if !got.Equal(c.want) {
			t.Errorf("%s: got %v want %v", c.expr, got, c.want)
		}
	}
}

func TestStateReadWrite(t *testing.T) {
	st := MapState{"k": StrV("k"), "n": IntV(10)}
	v, err := evalSrc(t, "self.n += 5\nreturn self.n", st)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 15 {
		t.Fatalf("state rmw: %v", v)
	}
	if st["n"].I != 15 {
		t.Fatalf("state not persisted: %v", st["n"])
	}
}

func TestContainerAttrMutationMarksState(t *testing.T) {
	// Mutating a list attribute in place must go through State.SetSlot.
	in, m, layout := compileM(t, "self.xs.append(2)\nself.xs[0] = 9\nreturn len(self.xs)")
	track := &trackingState{Row: RowFromMap(layout, MapState{"k": StrV("k"), "xs": ListV(IntV(1))})}
	v, err := runM(in, m, track)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Fatalf("len: %v", v)
	}
	if track.sets < 2 {
		t.Fatalf("expected >=2 state writes, got %d", track.sets)
	}
}

type trackingState struct {
	*Row
	sets int
}

func (s *trackingState) SetSlot(slot int, v Value) {
	s.sets++
	s.Row.SetSlot(slot, v)
}

func TestUndefinedVariableError(t *testing.T) {
	// The checker accepts a read of a variable only some paths define.
	if _, err := evalSrc(t, "if self.n > 0:\n    x: int = 1\nreturn x", MapState{"n": IntV(0)}); err == nil || !strings.Contains(err.Error(), "undefined variable x") {
		t.Fatalf("want undefined-variable error, got %v", err)
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{None, false}, {IntV(0), false}, {IntV(1), true},
		{StrV(""), false}, {StrV("x"), true}, {BoolV(true), true},
		{ListV(), false}, {ListV(IntV(1)), true},
		{FloatV(0), false}, {FloatV(0.1), true},
		{RefV("C", "k"), true},
	}
	for _, c := range cases {
		if c.v.IsTruthy() != c.want {
			t.Errorf("truthy(%v): want %v", c.v, c.want)
		}
	}
}

func TestValueStrings(t *testing.T) {
	d := DictV()
	_ = d.DictSet(StrV("a"), IntV(1))
	cases := map[string]Value{
		"None":       None,
		"42":         IntV(42),
		"True":       BoolV(true),
		"[1, \"x\"]": ListV(IntV(1), StrV("x")),
		"{\"a\": 1}": d,
		"C<k1>":      RefV("C", "k1"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v): got %q want %q", v.Kind, got, want)
		}
	}
}

func TestMinMaxStrings(t *testing.T) {
	got := mustEval(t, `a: str = min("b", "a", "c")
if a == "a":
    return 1
return 0`)
	if got.I != 1 {
		t.Fatalf("min strings: %v", got)
	}
}

// Guard: evaluating an expression with a position reports it in errors.
func TestErrorHasPosition(t *testing.T) {
	_, err := evalSrc(t, "return [1][5]", nil)
	rte, ok := err.(*RuntimeError)
	if !ok {
		t.Fatalf("error type: %T", err)
	}
	if rte.Pos == (token.Pos{}) {
		t.Fatal("error lacks position")
	}
}

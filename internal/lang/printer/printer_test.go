package printer

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/lang/parser"
)

// roundTrip parses source, prints it, reparses the print, and prints
// again: the two prints must be identical (print is a fixpoint).
func roundTrip(t *testing.T, body string) string {
	t.Helper()
	src := "@entity\nclass C:\n    def __init__(self, k: str):\n        self.k: str = k\n    def __key__(self) -> str:\n        return self.k\n    def m(self) -> int:\n"
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		src += "        " + line + "\n"
	}
	mod1, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	out1 := Stmts(mod1.Classes[0].Methods[2].Body, "") // C.m, after __init__ and __key__

	src2 := "@entity\nclass C:\n    def __init__(self, k: str):\n        self.k: str = k\n    def __key__(self) -> str:\n        return self.k\n    def m(self) -> int:\n"
	for _, line := range strings.Split(strings.TrimRight(out1, "\n"), "\n") {
		src2 += "        " + line + "\n"
	}
	mod2, err := parser.Parse(src2)
	if err != nil {
		t.Fatalf("reparse printed output: %v\n%s", err, src2)
	}
	out2 := Stmts(mod2.Classes[0].Methods[2].Body, "")
	if out1 != out2 {
		t.Fatalf("print not a fixpoint:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	return out1
}

func TestRoundTripAssignments(t *testing.T) {
	out := roundTrip(t, "x: int = 1\ny = x + 2\nself.k = str(y)\nreturn y")
	for _, want := range []string{"x: int = 1", "self.k = str(y)", "return y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTripControlFlow(t *testing.T) {
	out := roundTrip(t, `total = 0
for i in range(10):
    if i % 2 == 0:
        total += i
    else:
        total -= 1
while total > 5:
    total -= 1
    if total == 7:
        break
    continue
return total`)
	for _, want := range []string{"for i in range(10):", "while", "break", "continue", "else:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTripContainers(t *testing.T) {
	out := roundTrip(t, `xs: list[int] = [1, 2, 3]
d: dict[str, int] = {"a": 1, "b": 2}
xs.append(d["a"])
xs[0] = 9
return xs[0 - 1] + len(xs)`)
	for _, want := range []string{"[1, 2, 3]", `{"a": 1, "b": 2}`, "xs.append", "xs[0] = 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTripBooleans(t *testing.T) {
	out := roundTrip(t, `a: bool = True and not False or 1 < 2
if a:
    pass
return 0`)
	for _, want := range []string{"and", "not", "or", "pass"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestStringEscaping(t *testing.T) {
	out := roundTrip(t, `s: str = "line\nquote\"tab\t"
return len(s)`)
	if !strings.Contains(out, `"line\nquote\"tab\t"`) {
		t.Fatalf("escapes:\n%s", out)
	}
}

func TestExprPrecedenceParens(t *testing.T) {
	// Printed expressions are fully parenthesized, so reparsing preserves
	// the tree regardless of precedence.
	out := roundTrip(t, "return (1 + 2) * 3 - 4 / 2")
	if !strings.Contains(out, "(((1 + 2) * 3) - (4 / 2))") {
		t.Fatalf("parens:\n%s", out)
	}
}

func TestMethodCallsAndRefs(t *testing.T) {
	out := roundTrip(t, "v: int = self.helper(1, 2)\nreturn v")
	if !strings.Contains(out, "self.helper(1, 2)") {
		t.Fatalf("call:\n%s", out)
	}
}

func TestNoneAndFloats(t *testing.T) {
	out := roundTrip(t, "f: float = 1.5\nx = None\nreturn int(f)")
	if !strings.Contains(out, "1.5") || !strings.Contains(out, "None") {
		t.Fatalf("literals:\n%s", out)
	}
}

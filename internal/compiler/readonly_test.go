package compiler_test

import (
	"strings"
	"testing"

	adversarial "statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// logHead is an entity with list and dict attributes; each case below adds
// one method to it.
const logHead = `
@entity
class Log:
    def __init__(self, name: str):
        self.name: str = name
        self.items: list[int] = [0]
        self.seen: dict[str, int] = {}

    def __key__(self) -> str:
        return self.name
`

// TestReadOnlyIsSoundForContainerWrites pins the read-only analysis the
// StateFlow runtime's fast path trusts: a method it calls read-only is
// served against committed state outside any epoch, so every way of
// writing a container — in place, through a subscript, or through a local
// that aliases the attribute — must count as a write.
func TestReadOnlyIsSoundForContainerWrites(t *testing.T) {
	for _, tc := range []struct {
		name, src, class, method string
		readOnly                 bool
	}{
		{"append", logHead + `
    def m(self, x: int) -> int:
        self.items.append(x)
        return x
`, "Log", "m", false},
		{"list subscript", logHead + `
    def m(self, x: int) -> int:
        self.items[0] = x
        return x
`, "Log", "m", false},
		{"dict subscript", logHead + `
    def m(self, x: int) -> int:
        self.seen["a"] = x
        return x
`, "Log", "m", false},
		{"aliased append", logHead + `
    def m(self, x: int) -> int:
        xs: list[int] = self.items
        xs.append(x)
        return x
`, "Log", "m", false},
		{"aliased pop", logHead + `
    def m(self) -> int:
        xs: list[int] = self.items
        return xs.pop()
`, "Log", "m", false},
		{"container read", logHead + `
    def m(self) -> int:
        return len(self.items) + self.seen.get("a", 0) + self.items[0]
`, "Log", "m", true},
		{"ycsb read", ycsb.Program(), "Account", "read", true},
		{"ycsb update", ycsb.Program(), "Account", "update", false},
		{"ycsb transfer", ycsb.Program(), "Account", "transfer", false},
		{"adversarial get", adversarial.Program(), adversarial.Class, "get", true},
		{"adversarial bump", adversarial.Program(), adversarial.Class, "bump", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := compiler.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m := prog.MethodOf(tc.class, tc.method)
			if m == nil {
				t.Fatalf("no method %s.%s", tc.class, tc.method)
			}
			if m.ReadOnly != tc.readOnly {
				t.Fatalf("%s.%s: ReadOnly=%v, want %v", tc.class, tc.method, m.ReadOnly, tc.readOnly)
			}
		})
	}
}

// counterHead is an entity whose bump writes state.
const counterHead = `
@entity
class Counter:
    def __init__(self, name: str):
        self.name: str = name
        self.n: int = 0

    def __key__(self) -> str:
        return self.name

    def bump(self) -> int:
        self.n += 1
        return self.n
`

// TestAnyReceiverCallsAreBuiltins protects the StateFlow fast-read path
// (internal/systems/stateflow/read.go): a method the effect pass marks
// ReadOnly and Simple is served against the owner's committed store,
// outside any epoch, with no journal record. So a call the checker cannot
// resolve must not compile. A call on a receiver of unknown type (Any)
// resolves to a builtin method by name or is rejected, and no entity
// reference takes that type. Both methods below used to compile: the first
// as read-only, though it bumps its counter, and the second to fail at run
// time ("int has no methods").
func TestAnyReceiverCallsAreBuiltins(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"entity method through a list of unknown type", `
        xs = []
        xs = [self]
        return xs[0].bump()`, "cannot assign list[Counter] to xs"},
		{"no builtin of that name", `
        xs = [] + [1]
        return xs[0].frobnicate()`, "any has no method frobnicate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compiler.Compile(counterHead + "\n    def peek(self) -> int:" + tc.body + "\n")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a type error containing %q, got %v", tc.want, err)
			}
		})
	}
}

package compiler_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
)

// TestEffectSummaries pins every derived bit of every program in the tree
// (simple, read-only, ref-closed and the in-place continuations) to the
// program reports in testdata/effects.golden.
func TestEffectSummaries(t *testing.T) {
	var sb strings.Builder
	for i, src := range corpus(t) {
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "# corpus program %d\n%s", i, prog.Report())
	}
	want, err := os.ReadFile("testdata/effects.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("program reports differ from testdata/effects.golden; got:\n%s", got)
	}
}

// TestRefClosedSeesEveryReassignment: a method is ref-closed only while
// every entity it invokes is self or an entity parameter the method never
// rebinds — not in a branch, as a loop variable or as a call's result —
// and constructs nothing, and only while its callees are ref-closed too.
func TestRefClosedSeesEveryReassignment(t *testing.T) {
	prog, err := compiler.Compile(`
@entity
class B:
    def __init__(self, k: str):
        self.k: str = k
        self.v: int = 0
    def __key__(self) -> str:
        return self.k
    def get(self) -> int:
        return self.v
    def relay(self, other: B) -> int:
        return other.get()
    def me(self) -> B:
        return self
    def spawn(self, k: str) -> int:
        return B(k).get()

@entity
class A:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def plain(self, b: B, c: B) -> int:
        return b.relay(c)
    def in_branch(self, b: B, c: B, f: int) -> int:
        if f > 0:
            b = c
        return b.get()
    def in_loop(self, b: B, xs: list[B]) -> int:
        t: int = 0
        for b in xs:
            t += b.get()
        return t
    def from_call(self, b: B, c: B) -> int:
        b = c.me()
        return b.get()
    def unnamed_arg(self, b: B, xs: list[B]) -> int:
        return b.relay(xs[0])
    def ctor(self, k: str) -> int:
        return B(k).get()
    def via_callee(self, b: B) -> int:
        return b.spawn("z")
`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"plain": true, "in_branch": false, "in_loop": false,
		"from_call": false, "unnamed_arg": false, "ctor": false, "via_callee": false}
	for method, closed := range want {
		if got := prog.MethodOf("A", method).RefClosed; got != closed {
			t.Errorf("A.%s: RefClosed = %v, want %v", method, got, closed)
		}
	}
}

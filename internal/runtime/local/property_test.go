package local

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
)

// This file checks compiler+runtime semantics against a Go reference
// implementation on randomized programs: the split/dataflow execution of
// an arithmetic accumulation loop must produce exactly the value computed
// natively, whatever the random mix of local control flow and remote
// calls.

// genProgram builds a random method body that mixes local arithmetic with
// remote calls to a counter entity, plus the Go function computing the
// expected result given the bump return values.
type op struct {
	kind string // "add", "mul", "bump", "if", "loop"
	arg  int64
}

func genOps(r *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch r.Intn(5) {
		case 0:
			ops[i] = op{kind: "add", arg: int64(r.Intn(20) - 10)}
		case 1:
			ops[i] = op{kind: "mul", arg: int64(r.Intn(3) + 1)}
		case 2:
			ops[i] = op{kind: "bump", arg: int64(r.Intn(5) + 1)}
		case 3:
			ops[i] = op{kind: "if", arg: int64(r.Intn(40))}
		default:
			ops[i] = op{kind: "loop", arg: int64(r.Intn(3) + 1)}
		}
	}
	return ops
}

// buildSource renders the ops as a DSL method.
func buildSource(ops []op) string {
	var b strings.Builder
	b.WriteString(`
@entity
class Counter:
    def __init__(self, name: str):
        self.name: str = name
        self.n: int = 0

    def __key__(self) -> str:
        return self.name

    def bump(self, by: int) -> int:
        self.n += by
        return self.n

@entity
class Driver:
    def __init__(self, name: str):
        self.name: str = name

    def __key__(self) -> str:
        return self.name

    def run(self, c: Counter) -> int:
        acc: int = 0
`)
	for _, o := range ops {
		switch o.kind {
		case "add":
			fmt.Fprintf(&b, "        acc += %d\n", o.arg)
		case "mul":
			fmt.Fprintf(&b, "        acc = acc * %d\n", o.arg)
		case "bump":
			fmt.Fprintf(&b, "        acc += c.bump(%d)\n", o.arg)
		case "if":
			fmt.Fprintf(&b, "        if acc > %d:\n            acc -= 1\n        else:\n            acc += c.bump(1)\n", o.arg)
		case "loop":
			fmt.Fprintf(&b, "        for i in range(%d):\n            acc += c.bump(1) + i\n", o.arg)
		}
	}
	b.WriteString("        return acc\n")
	return b.String()
}

// reference interprets the ops natively.
func reference(ops []op) int64 {
	var acc, counter int64
	bump := func(by int64) int64 {
		counter += by
		return counter
	}
	for _, o := range ops {
		switch o.kind {
		case "add":
			acc += o.arg
		case "mul":
			acc *= o.arg
		case "bump":
			acc += bump(o.arg)
		case "if":
			if acc > o.arg {
				acc--
			} else {
				acc += bump(1)
			}
		case "loop":
			for i := int64(0); i < o.arg; i++ {
				acc += bump(1) + i
			}
		}
	}
	return acc
}

func TestRandomProgramsMatchReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := genOps(r, 1+r.Intn(12))
		src := buildSource(ops)
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Logf("compile failed for seed %d:\n%s\n%v", seed, src, err)
			return false
		}
		rt := New(prog)
		if _, err := rt.Create("Counter", interp.StrV("c")); err != nil {
			t.Log(err)
			return false
		}
		if _, err := rt.Create("Driver", interp.StrV("d")); err != nil {
			t.Log(err)
			return false
		}
		res, err := rt.Invoke("Driver", "d", "run", interp.RefV("Counter", "c"))
		if err != nil || res.Err != "" {
			t.Logf("run failed for seed %d: %v %s\n%s", seed, err, res.Err, src)
			return false
		}
		want := reference(ops)
		if res.Value.I != want {
			t.Logf("seed %d: got %d want %d\n%s", seed, res.Value.I, want, src)
			return false
		}
		// The split method must actually have suspension points whenever a
		// bump appears.
		m := prog.MethodOf("Driver", "run")
		hasBump := false
		for _, o := range ops {
			if o.kind != "add" && o.kind != "mul" {
				hasBump = true
			}
		}
		if hasBump && m.Simple {
			t.Logf("seed %d: method with remote calls not split", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsDeterministic runs the same random program twice and
// expects identical results and state.
func TestRandomProgramsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ops := genOps(r, 8)
		src := buildSource(ops)
		run := func() (int64, int64) {
			prog, err := compiler.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}
			rt := New(prog)
			if _, err := rt.Create("Counter", interp.StrV("c")); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Create("Driver", interp.StrV("d")); err != nil {
				t.Fatal(err)
			}
			res, err := rt.Invoke("Driver", "d", "run", interp.RefV("Counter", "c"))
			if err != nil || res.Err != "" {
				t.Fatalf("%v %s", err, res.Err)
			}
			st, _ := rt.State("Counter", "c")
			return res.Value.I, st["n"].I
		}
		v1, n1 := run()
		v2, n2 := run()
		if v1 != v2 || n1 != n2 {
			t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)\n%s", v1, n1, v2, n2, src)
		}
	}
}

package core

import (
	"slices"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/state"
)

const src = `
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

    def double_bump(self, c: Counter) -> int:
        a: int = c.bump(1)
        b: int = c.bump(1)
        return a + b

    def mk(self, name: str) -> int:
        c: Counter = Counter(name)
        return c.bump(5)

    def bump_named(self, c: Counter) -> str:
        a: int = c.bump(1)
        return self.name + str(a)
`

// memStore is the runtimes' store: rows of the program's class layouts.
type memStore struct{ *state.Store }

func (m memStore) Lookup(ref interp.EntityRef) (interp.State, bool) {
	row, ok := m.Store.Lookup(ref)
	if !ok {
		return nil, false
	}
	return row, true
}

func newExec(t *testing.T) (*Executor, memStore) {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	store := memStore{state.NewStore(prog.Layouts())}
	store.PutMap(interp.EntityRef{Class: "Counter", Key: "c"}, interp.MapState{
		"name": interp.StrV("c"), "n": interp.IntV(0),
	})
	store.PutMap(interp.EntityRef{Class: "Driver", Key: "d"}, interp.MapState{
		"name": interp.StrV("d"),
	})
	return NewExecutor(prog), store
}

// drive pushes events through Step until the response, returning it and
// the trace of event kinds.
func drive(t *testing.T, ex *Executor, store memStore, ev *Event) (*Event, []EventKind) {
	t.Helper()
	queue := []*Event{ev}
	var kinds []EventKind
	for steps := 0; len(queue) > 0; steps++ {
		if steps > 1000 {
			t.Fatal("event loop runaway")
		}
		cur := queue[0]
		queue = queue[1:]
		kinds = append(kinds, cur.Kind)
		if cur.Kind == EvResponse {
			return cur, kinds
		}
		out, err := ex.Step(cur, store)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		queue = append(queue, out...)
	}
	t.Fatal("no response")
	return nil, nil
}

func TestSuspendResumeCycle(t *testing.T) {
	for _, tc := range []struct {
		method string
		value  string
		// Event trace. double_bump's first continuation calls c again, so
		// it resumes on the driver; its last, `return a + b`, reads no
		// state and runs where the second bump returns. bump_named's
		// continuation reads self.name, so it keeps its resume.
		want []EventKind
		hops int
	}{
		{"double_bump", "3", []EventKind{EvInvoke, EvInvoke, EvResume, EvInvoke, EvResponse}, 3},
		{"bump_named", `"d1"`, []EventKind{EvInvoke, EvInvoke, EvResume, EvResponse}, 2},
	} {
		ex, store := newExec(t)
		resp, kinds := drive(t, ex, store, &Event{
			Kind:   EvInvoke,
			Req:    "r1",
			Target: interp.EntityRef{Class: "Driver", Key: "d"},
			Method: tc.method,
			Args:   []interp.Value{interp.RefV("Counter", "c")},
		})
		if resp.Err != "" {
			t.Fatalf("%s: error: %s", tc.method, resp.Err)
		}
		if got := resp.Value.Repr(); got != tc.value {
			t.Fatalf("%s: value %s, want %s", tc.method, got, tc.value)
		}
		if len(kinds) != len(tc.want) {
			t.Fatalf("%s: trace %v, want %v", tc.method, kinds, tc.want)
		}
		for i := range tc.want {
			if kinds[i] != tc.want[i] {
				t.Fatalf("%s: trace[%d]: %s want %s (%v)", tc.method, i, kinds[i], tc.want[i], kinds)
			}
		}
		if resp.Hops != tc.hops {
			t.Fatalf("%s: hops %d, want %d", tc.method, resp.Hops, tc.hops)
		}
	}
}

// TestHopCounting counts only real transfers: double_bump's two calls and
// the resume between them. Its in-place tail is not a hop.
func TestHopCounting(t *testing.T) {
	ex, store := newExec(t)
	resp, _ := drive(t, ex, store, &Event{
		Kind:   EvInvoke,
		Req:    "r1",
		Target: interp.EntityRef{Class: "Driver", Key: "d"},
		Method: "double_bump",
		Args:   []interp.Value{interp.RefV("Counter", "c")},
	})
	if resp.Hops != 3 {
		t.Fatalf("hops: %d", resp.Hops)
	}
}

func TestConstructorRouting(t *testing.T) {
	ex, store := newExec(t)
	key, err := ex.KeyForCtor("Counter", []interp.Value{interp.StrV("fresh")})
	if err != nil || key != "fresh" {
		t.Fatalf("ctor key: %q %v", key, err)
	}
	resp, _ := drive(t, ex, store, &Event{
		Kind:   EvInvoke,
		Req:    "r2",
		Target: interp.EntityRef{Class: "Driver", Key: "d"},
		Method: "mk",
		Args:   []interp.Value{interp.StrV("fresh")},
	})
	if resp.Err != "" || resp.Value.I != 5 {
		t.Fatalf("mk: %+v", resp)
	}
	if !store.Exists(interp.EntityRef{Class: "Counter", Key: "fresh"}) {
		t.Fatal("constructed entity missing")
	}
}

func TestKeyForCtorErrors(t *testing.T) {
	ex, _ := newExec(t)
	if _, err := ex.KeyForCtor("Nope", nil); err == nil {
		t.Fatal("unknown class")
	}
	if _, err := ex.KeyForCtor("Counter", nil); err == nil {
		t.Fatal("missing args")
	}
	if _, err := ex.KeyForCtor("Counter", []interp.Value{interp.ListV()}); err == nil {
		t.Fatal("unhashable key")
	}
	if k, err := ex.KeyForCtor("Counter", []interp.Value{interp.IntV(7)}); err != nil || k != "7" {
		t.Fatalf("int key: %q %v", k, err)
	}
}

func TestUnknownMethodAndEntityErrors(t *testing.T) {
	ex, store := newExec(t)
	resp, _ := drive(t, ex, store, &Event{
		Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Counter", Key: "c"},
		Method: "nope",
	})
	if !strings.Contains(resp.Err, "unknown method") {
		t.Fatalf("err: %q", resp.Err)
	}
	resp, _ = drive(t, ex, store, &Event{
		Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Counter", Key: "ghost"},
		Method: "bump", Args: []interp.Value{interp.IntV(1)},
	})
	if !strings.Contains(resp.Err, "does not exist") {
		t.Fatalf("err: %q", resp.Err)
	}
	resp, _ = drive(t, ex, store, &Event{
		Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Ghost", Key: "x"},
		Method: "m",
	})
	if !strings.Contains(resp.Err, "unknown operator") {
		t.Fatalf("err: %q", resp.Err)
	}
}

func TestArgCountError(t *testing.T) {
	ex, store := newExec(t)
	resp, _ := drive(t, ex, store, &Event{
		Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Counter", Key: "c"},
		Method: "bump",
	})
	if resp.Err == "" {
		t.Fatal("expected arity error")
	}
}

func TestContextEnvPruning(t *testing.T) {
	// After suspension, the carried frame env must contain only live-out
	// variables (§2.4/§2.5 intermediate results), not everything ever
	// defined.
	ex, store := newExec(t)
	ev := &Event{
		Kind:   EvInvoke,
		Req:    "r1",
		Target: interp.EntityRef{Class: "Driver", Key: "d"},
		Method: "double_bump",
		Args:   []interp.Value{interp.RefV("Counter", "c")},
	}
	out, err := ex.Step(ev, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Kind != EvInvoke {
		t.Fatalf("outputs: %+v", out)
	}
	fr := out[0].Ctx.Top()
	if fr == nil {
		t.Fatal("no suspended frame")
	}
	// Frame belongs to the driver awaiting the first bump; only `c` is
	// live (needed for the second bump; `a` arrives in the result slot).
	if _, ok := fr.Env.GetSlot(slotOf(t, fr.Method, "c")); !ok || fr.Env.Len() != 1 {
		t.Fatalf("want only live var c carried, got %d variables", fr.Env.Len())
	}
	if fr.Result != slotOf(t, fr.Method, "a")+1 {
		t.Fatalf("result slot %d, want a's", fr.Result)
	}
	if empty := (&Context{}); empty.Top() != nil {
		t.Fatal("empty context top")
	}
}

// slotOf reads a variable's frame slot off its method's layout.
func slotOf(t *testing.T, m *ir.Method, name string) int {
	t.Helper()
	i := slices.Index(m.Frame.Vars, name)
	if i < 0 {
		t.Fatalf("%s is not in %s's frame layout %v", name, m.Name, m.Frame.Vars)
	}
	return i
}

func TestEventKindString(t *testing.T) {
	if EvInvoke.String() != "invoke" || EvResume.String() != "resume" || EvResponse.String() != "response" {
		t.Fatal("kind names")
	}
	if !strings.Contains(EventKind(42).String(), "42") {
		t.Fatal("unknown kind")
	}
}

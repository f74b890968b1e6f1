package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

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

@entity
class Account:
    def __init__(self, owner: str, balance: int):
        self.owner: str = owner
        self.balance: int = balance

    def __key__(self) -> str:
        return self.owner

    def deposit(self, amount: int) -> bool:
        self.balance += amount
        return True

    def deposit_twice(self, amount: int) -> bool:
        self.deposit(amount)
        return self.deposit(amount)

    def deposit_sum(self, a: int, b: int, c: int, d: int) -> bool:
        total: int = a + b + c + d
        return self.deposit(total)

    @transactional
    def transfer(self, amount: int, to: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        to.deposit(amount)
        return True
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
	for _, owner := range []string{"a", "b"} {
		store.PutMap(interp.EntityRef{Class: "Account", Key: owner}, interp.MapState{
			"owner": interp.StrV(owner), "balance": interp.IntV(1 << 40),
		})
	}
	return NewExecutor(prog), store
}

// drive pushes events through Step until the response, returning it and
// the trace of event kinds.
func drive(t *testing.T, ex *Executor, store memStore, ev *Event) (Event, []EventKind) {
	t.Helper()
	cur := *ev
	var kinds []EventKind
	for steps := 0; ; steps++ {
		if steps > 1000 {
			t.Fatal("event loop runaway")
		}
		kinds = append(kinds, cur.Kind)
		if cur.Kind == EvResponse {
			return cur, kinds
		}
		var err error
		if cur, err = ex.Step(&cur, store); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
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
	if out.Kind != EvInvoke {
		t.Fatalf("output: %+v", out)
	}
	fr := out.Ctx.Top()
	if fr == nil {
		t.Fatal("no suspended frame")
	}
	// Frame belongs to the driver awaiting the first bump; only `c` is
	// live (needed for the second bump; `a` arrives in the result slot).
	for i, c := 0, slotOf(t, fr.Method, "c"); i < fr.Method.Frame.NumSlots(); i++ {
		if _, ok := fr.Env.GetSlot(i); ok != (i == c) {
			t.Fatalf("want only live var c carried, got %s defined: %v", fr.Method.Frame.Vars[i], ok)
		}
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

// TestStepYieldsOneEvent steps a root event `at` times along its own event
// chain and checks the one event the last step yields, on every path: a
// suspend, a resume, a continuation completed in place, __init__ and each
// failure, which is a response carrying the error.
func TestStepYieldsOneEvent(t *testing.T) {
	counter := interp.EntityRef{Class: "Counter", Key: "c"}
	driver := interp.EntityRef{Class: "Driver", Key: "d"}
	call := func(target interp.EntityRef, method string, args ...interp.Value) Event {
		return Event{Kind: EvInvoke, Req: "r", Target: target, Method: method, Args: args}
	}
	c := interp.RefV("Counter", "c")
	for _, tc := range []struct {
		name string
		root Event
		at   int
		// empty runs the checked step on a store holding no entity.
		empty  bool
		kind   EventKind
		target interp.EntityRef // EvInvoke and EvResume
		value  string           // EvResponse without an error
		err    string           // EvResponse with an error
		hops   int
	}{
		{name: "simple root call", root: call(counter, "bump", interp.IntV(1)), kind: EvResponse, value: "1"},
		{name: "suspend", root: call(driver, "double_bump", c), kind: EvInvoke, target: counter, hops: 1},
		{name: "callee returns to a caller that reads state", root: call(driver, "double_bump", c), at: 1,
			kind: EvResume, target: driver, hops: 2},
		{name: "resume and suspend again", root: call(driver, "double_bump", c), at: 2,
			kind: EvInvoke, target: counter, hops: 3},
		{name: "StateFree continuation completes in place", root: call(driver, "double_bump", c), at: 3,
			kind: EvResponse, value: "3", hops: 3},
		{name: "__init__ as the root", root: call(interp.EntityRef{Class: "Counter", Key: "f"}, "__init__", interp.StrV("f")),
			kind: EvResponse, value: interp.RefV("Counter", "f").Repr()},
		{name: "__init__ under a caller", root: call(driver, "mk", interp.StrV("g")), at: 1,
			kind: EvResume, target: driver, hops: 2},
		{name: "unknown operator", root: call(interp.EntityRef{Class: "Ghost", Key: "x"}, "m"),
			kind: EvResponse, err: "unknown operator"},
		{name: "unknown method", root: call(counter, "nope"), kind: EvResponse, err: "unknown method"},
		{name: "missing entity", root: call(interp.EntityRef{Class: "Counter", Key: "ghost"}, "bump", interp.IntV(1)),
			kind: EvResponse, err: "does not exist"},
		{name: "arity of a simple root call", root: call(counter, "bump"), kind: EvResponse, err: "expects 1 args"},
		{name: "arity of a call that suspends", root: call(driver, "double_bump"), kind: EvResponse, err: "expects 1 args"},
		{name: "__init__ of an existing entity", root: call(counter, "__init__", interp.StrV("c")),
			kind: EvResponse, err: "exists"},
		{name: "execution error", root: call(counter, "bump", interp.StrV("x")), kind: EvResponse, err: "cannot add"},
		{name: "receiver is not an entity", root: call(driver, "double_bump", interp.IntV(1)),
			kind: EvResponse, err: "not an entity"},
		{name: "resumed entity vanished", root: call(driver, "double_bump", c), at: 2, empty: true,
			kind: EvResponse, err: "vanished", hops: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, store := newExec(t)
			ev := tc.root
			for i := 0; i <= tc.at; i++ {
				var st Store = store
				if tc.empty && i == tc.at {
					st = memStore{state.NewStore(ex.prog.Layouts())}
				}
				var err error
				if ev, err = ex.Step(&ev, st); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if ev.Kind != tc.kind || ev.Hops != tc.hops || ev.Req != "r" {
				t.Fatalf("yielded %s (hops %d, req %q), want %s (hops %d)", ev.Kind, ev.Hops, ev.Req, tc.kind, tc.hops)
			}
			switch {
			case ev.Kind != EvResponse:
				if ev.Target != tc.target || ev.Ctx == nil {
					t.Fatalf("%s to %s (context %v), want one to %s with a context", ev.Kind, ev.Target, ev.Ctx, tc.target)
				}
			case tc.err != "":
				if !strings.Contains(ev.Err, tc.err) {
					t.Fatalf("error %q, want one containing %q", ev.Err, tc.err)
				}
			default:
				if ev.Err != "" || ev.Value.Repr() != tc.value {
					t.Fatalf("response %s (error %q), want %s", ev.Value.Repr(), ev.Err, tc.value)
				}
			}
		})
	}
}

// TestStepFaults pins the internal faults Step reports as errors rather
// than as responses: each yields no event.
func TestStepFaults(t *testing.T) {
	ex, store := newExec(t)
	suspended, err := ex.Step(&Event{Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Driver", Key: "d"},
		Method: "double_bump", Args: []interp.Value{interp.RefV("Counter", "c")}}, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ev   Event
		want string
	}{
		{"a response", Event{Kind: EvResponse, Req: "r"}, "received response"},
		{"a resume without a frame", Event{Kind: EvResume, Req: "r", Ctx: &Context{}}, "empty context"},
		{"a resume routed elsewhere", Event{Kind: EvResume, Req: "r", Target: suspended.Target, Ctx: suspended.Ctx},
			"frame belongs to"},
	} {
		ev, err := ex.Step(&tc.ev, store)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !reflect.DeepEqual(ev, Event{}) {
			t.Errorf("%s: yielded %+v, error %v; want no event and an error containing %q", tc.name, ev, err, tc.want)
		}
	}
}

// TestStepAllocs prices Step in heap allocations. A simple root call
// allocates nothing: its frame ends with the step, so it is bound over a
// stack array, and so is the frame of each inline self-call it makes.
// Only a frame wider than interp.StackSlots spills its slots to the heap.
// Stepped by Step, the two-frame transfer allocates its context and nothing
// else (and nothing at all in its caller's storage: TestStepInAllocs): the
// context holds both frames and the arena their slots and the deposit's
// argument live in, the deposit's return completes the transfer in place
// and the response is a value. The simple call cost 2 (its frame and its
// slots) while the interpreter kept the variables and the state in one
// struct, which escape analysis leaked as a whole; the transfer cost 4
// while its slots, the deposit's arguments and its slots were arrays of
// their own, and 12 while Step also returned a slice of heap events and
// every frame, and its stack, was allocated on its own.
func TestStepAllocs(t *testing.T) {
	ex, store := newExec(t)
	for name, want := range map[string]int{"deposit": 1, "deposit_twice": 1, "deposit_sum": 5} {
		m := ex.prog.Operator("Account").Method(name)
		if !m.Simple || m.Frame.NumSlots() != want {
			t.Fatalf("Account.%s: simple %v, %d slots, want a simple method of %d: the cases below no longer test what they name",
				name, m.Simple, m.Frame.NumSlots(), want)
		}
	}
	if interp.StackSlots != 4 {
		t.Fatalf("interp.StackSlots is %d: deposit_sum no longer spills", interp.StackSlots)
	}
	a, b := interp.EntityRef{Class: "Account", Key: "a"}, interp.EntityRef{Class: "Account", Key: "b"}
	one := interp.IntV(1)
	for _, tc := range []struct {
		name    string
		root    Event
		steps   int
		ceiling float64
	}{
		{"simple root call", Event{Kind: EvInvoke, Req: "r", Target: a, Method: "deposit",
			Args: []interp.Value{one}}, 1, 0},
		{"simple root call with inline self-calls", Event{Kind: EvInvoke, Req: "r", Target: a, Method: "deposit_twice",
			Args: []interp.Value{one}}, 1, 0},
		// Five slots: the root frame's slots spill, deposit's frame does not.
		{"simple root call wider than the stack frame", Event{Kind: EvInvoke, Req: "r", Target: a, Method: "deposit_sum",
			Args: []interp.Value{one, one, one, one}}, 1, 1},
		{"transfer -> deposit -> response", Event{Kind: EvInvoke, Req: "r", Target: a, Method: "transfer",
			Args: []interp.Value{interp.IntV(1), interp.RefV(b.Class, b.Key)}}, 2, 1},
	} {
		var last Event
		allocs := testing.AllocsPerRun(100, func() {
			ev := tc.root
			for i := 0; i < tc.steps; i++ {
				ev, _ = ex.Step(&ev, store)
			}
			last = ev
		})
		if last.Kind != EvResponse || last.Err != "" || last.Hops != tc.steps-1 {
			t.Fatalf("%s: %d steps end in %+v, want its response", tc.name, tc.steps, last)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f: a step grew an allocation", tc.name, allocs, tc.ceiling)
		}
	}
}

// arenaSrc's methods are sized around a context's three-value arena: see
// TestStepAllocsArena.
const arenaSrc = `
@entity
class Cell:
    def __init__(self, name: str, v: int):
        self.name: str = name
        self.v: int = v

    def __key__(self) -> str:
        return self.name

    def add(self, by: int) -> int:
        by = by * 2
        self.v += by
        return by

@entity
class Wallet:
    def __init__(self, name: str, v: int):
        self.name: str = name
        self.v: int = v

    def __key__(self) -> str:
        return self.name

    def pay(self, amount: int, to: Cell) -> int:
        to.add(amount)
        return self.v + amount

    def open(self, name: str) -> bool:
        Cell(name, 7)
        return True

    def repeat(self, to: Cell, n: int) -> int:
        while n > 0:
            to.add(1)
            n -= 1
        return self.v

    def plus(self, c: Cell) -> int:
        a: int = c.add(3)
        return a + 1

    def deep(self, r: Relay, c: Cell) -> int:
        x: int = r.mid(c)
        return x + 1

@entity
class Relay:
    def __init__(self, name: str):
        self.name: str = name

    def __key__(self) -> str:
        return self.name

    def mid(self, c: Cell) -> int:
        y: int = c.add(2)
        return y + 1
`

// TestStepAllocsArena drives call chains laid out in a context's value
// arena and checks each response, the state it leaves and what it
// allocates. A transfer-shaped chain (two caller slots, one callee slot)
// fills the arena exactly, so the caller's slots and the callee's argument,
// which becomes its frame, sit side by side.
func TestStepAllocsArena(t *testing.T) {
	if size := unsafe.Sizeof(Context{}); size > 448 {
		t.Fatalf("a context is %d bytes, over the 448-byte size class its arena is sized to", size)
	}
	prog, err := compiler.Compile(arenaSrc)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(prog)
	store := memStore{state.NewStore(prog.Layouts())}
	wallet, cell := interp.EntityRef{Class: "Wallet", Key: "w"}, interp.EntityRef{Class: "Cell", Key: "c"}
	fresh, relay := interp.EntityRef{Class: "Cell", Key: "fresh"}, interp.EntityRef{Class: "Relay", Key: "r"}
	for name, want := range map[string]int{"Wallet.pay": 2, "Wallet.open": 1, "Wallet.repeat": 2, "Wallet.plus": 2, "Wallet.deep": 3, "Relay.mid": 2, "Cell.add": 1} {
		class, method, _ := strings.Cut(name, ".")
		if got := prog.Operator(class).Method(method).Frame.NumSlots(); got != want {
			t.Fatalf("%s has %d slots, want %d: the cases below no longer test the arena layout they name", name, got, want)
		}
	}
	c := interp.RefV(cell.Class, cell.Key)
	for _, tc := range []struct {
		name   string
		method string
		args   []interp.Value
		value  string
		cellV  int64 // c's balance after the call (v starts at 0)
		// created: the call constructs fresh, which is cleared away after
		// every run so the next one can construct it again.
		created bool
		ceiling float64
	}{
		// add doubles its parameter in place, in the slot that was the
		// argument, next to pay's own amount, which must survive.
		{"a callee that reassigns its parameter", "pay", []interp.Value{interp.IntV(5), c}, "105", 10, false, 1},
		// __init__ binds its own frame, on the stack, from arguments
		// evaluated into the arena: past the context, the constructor
		// costs the closure Create runs and the new row and its slots (6
		// while the frame and its slots were allocated).
		{"a constructor callee", "open", []interp.Value{interp.StrV("fresh")}, "True", 0, true, 4},
		// Each iteration's call reuses the same arena value.
		{"a remote call in a while loop", "repeat", []interp.Value{c, interp.IntV(3)}, "100", 6, false, 1},
		{"a StateFree continuation after a call", "plus", []interp.Value{c}, "7", 6, false, 1},
		// deep's three slots fill the arena, so mid's and add's arguments
		// and frames spill to the heap (four arrays), and add's frame, the
		// third, outgrows the inline stack.
		{"a chain deeper than the arena", "deep", []interp.Value{interp.RefV("Relay", "r"), c}, "6", 4, false, 6},
	} {
		store.Clear()
		store.PutMap(wallet, interp.MapState{"name": interp.StrV("w"), "v": interp.IntV(100)})
		store.PutMap(cell, interp.MapState{"name": interp.StrV("c"), "v": interp.IntV(0)})
		store.PutMap(relay, interp.MapState{"name": interp.StrV("r")})
		root := Event{Kind: EvInvoke, Req: "r", Target: wallet, Method: tc.method, Args: tc.args}
		resp, _, err := ex.Drive(root, store)
		if err != nil || resp.Err != "" || resp.Value.Repr() != tc.value {
			t.Fatalf("%s: response %s (error %q, %v), want %s", tc.name, resp.Value.Repr(), resp.Err, err, tc.value)
		}
		if st, _ := store.Lookup(cell); st.(*interp.Row).CloneMap()["v"].I != tc.cellV {
			t.Errorf("%s: c.v = %v, want %d", tc.name, st.(*interp.Row).CloneMap()["v"], tc.cellV)
		}
		if st, ok := store.Lookup(fresh); ok != tc.created || ok && st.(*interp.Row).CloneMap()["v"].I != 7 {
			t.Errorf("%s: constructed %v (%v), want %v with v 7", tc.name, ok, st, tc.created)
		}
		if w, _ := store.Lookup(wallet); w.(*interp.Row).CloneMap()["v"].I != 100 {
			t.Errorf("%s: the wallet changed: %v", tc.name, w.(*interp.Row).CloneMap())
		}
		// Clearing the store and putting back the rows the run left removes
		// fresh without allocating.
		rows := [3]*interp.Row{}
		for i, ref := range []interp.EntityRef{wallet, cell, relay} {
			rows[i], _ = store.Store.Lookup(ref)
		}
		allocs := testing.AllocsPerRun(100, func() {
			ev := root
			for ev.Kind != EvResponse {
				ev, _ = ex.Step(&ev, store)
			}
			if tc.created {
				store.Clear()
				store.Put(wallet, rows[0])
				store.Put(cell, rows[1])
				store.Put(relay, rows[2])
			}
		})
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// TestStepInAllocs prices call chains stepped through StepIn with the
// caller's storage for their context, as a StateFlow worker steps them: the
// context is built there, so a chain that suspends and resumes allocates
// nothing at all, and every event after the first carries the caller's
// storage. (Step, which has no storage to build in, allocates the context:
// TestStepAllocs and TestStepAllocsArena.)
func TestStepInAllocs(t *testing.T) {
	ex, store := newExec(t)
	prog, err := compiler.Compile(arenaSrc)
	if err != nil {
		t.Fatal(err)
	}
	arenaEx, arenaStore := NewExecutor(prog), memStore{state.NewStore(prog.Layouts())}
	arenaStore.PutMap(interp.EntityRef{Class: "Wallet", Key: "w"}, interp.MapState{"name": interp.StrV("w"), "v": interp.IntV(100)})
	arenaStore.PutMap(interp.EntityRef{Class: "Cell", Key: "c"}, interp.MapState{"name": interp.StrV("c"), "v": interp.IntV(0)})
	var spare Context
	for _, tc := range []struct {
		name  string
		ex    *Executor
		store memStore
		root  Event
		kinds []EventKind
	}{
		// pay's continuation reads self.v: invoke, suspend into add, resume
		// on the wallet.
		{"suspend, then resume", arenaEx, arenaStore, Event{Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Wallet", Key: "w"},
			Method: "pay", Args: []interp.Value{interp.IntV(5), interp.RefV("Cell", "c")}}, []EventKind{EvInvoke, EvResume, EvResponse}},
		// transfer's continuation reads nothing, so deposit's return
		// completes it in place.
		{"a transfer completed in place", ex, store, Event{Kind: EvInvoke, Req: "r", Target: interp.EntityRef{Class: "Account", Key: "a"},
			Method: "transfer", Args: []interp.Value{interp.IntV(1), interp.RefV("Account", "b")}}, []EventKind{EvInvoke, EvResponse}},
	} {
		var kinds []EventKind
		var last Event
		allocs := testing.AllocsPerRun(100, func() {
			kinds = kinds[:0]
			ev := tc.root
			for ev.Kind != EvResponse {
				ev, _ = tc.ex.StepIn(&ev, tc.store, &spare)
				kinds = append(kinds, ev.Kind)
				if ev.Kind != EvResponse && ev.Ctx != &spare {
					t.Fatalf("%s: a %s event carries context %p, not the caller's storage", tc.name, ev.Kind, ev.Ctx)
				}
			}
			last = ev
		})
		if last.Err != "" || !slices.Equal(kinds, tc.kinds) {
			t.Fatalf("%s: %v ending in %+v, want %v ending in a response", tc.name, kinds, last, tc.kinds)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations, want none: the chain allocated its context or a frame", tc.name, allocs)
		}
	}
}

// TestStepInResetsItsStorage runs two chains back to back through one
// storage, the first abandoned midway: its transfer's deposit reaches an
// account that does not exist, so the transfer's frame is still on the
// stack when the error response ends the chain. The second chain must start
// from an empty stack. Built on top of the stale frame, its root's return
// would complete the abandoned transfer in place and answer True.
func TestStepInResetsItsStorage(t *testing.T) {
	ex, store := newExec(t)
	var spare Context
	ev := Event{Kind: EvInvoke, Req: "r1", Target: interp.EntityRef{Class: "Account", Key: "a"}, Method: "transfer",
		Args: []interp.Value{interp.IntV(1), interp.RefV("Account", "ghost")}}
	for ev.Kind != EvResponse {
		ev, _ = ex.StepIn(&ev, store, &spare)
	}
	if !strings.Contains(ev.Err, "does not exist") || len(spare.Stack) != 1 {
		t.Fatalf("scenario: the first chain ended in %+v with %d frames left, want an error with the transfer's frame left",
			ev, len(spare.Stack))
	}
	ev = Event{Kind: EvInvoke, Req: "r2", Target: interp.EntityRef{Class: "Driver", Key: "d"}, Method: "bump_named",
		Args: []interp.Value{interp.RefV("Counter", "c")}}
	for ev.Kind != EvResponse {
		if ev, _ = ex.StepIn(&ev, store, &spare); ev.Req != "r2" {
			t.Fatalf("the second chain's %s event names request %q", ev.Kind, ev.Req)
		}
	}
	if ev.Err != "" || ev.Value.Repr() != `"d1"` || ev.Hops != 2 || len(spare.Stack) != 0 {
		t.Fatalf("the second chain answered %+v with %d frames left, want \"d1\" after 2 hops and an empty stack",
			ev, len(spare.Stack))
	}
}

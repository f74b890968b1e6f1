// Tests of the public API surface: compile + the three runtimes behind one
// program, exercised the way a downstream user would.
package stateflow_test

import (
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
)

func TestCompilePublicAPI(t *testing.T) {
	prog, err := stateflow.Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Operator("User") == nil || prog.Operator("Item") == nil {
		t.Fatal("operators missing")
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Report(), "buy_item") {
		t.Fatal("report")
	}
	if !strings.Contains(prog.Dot(), "digraph") {
		t.Fatal("dot")
	}
}

func TestCompileErrorSurfaced(t *testing.T) {
	_, err := stateflow.Compile("class X:\n    pass\n")
	if err == nil {
		t.Fatal("expected compile error")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	stateflow.MustCompile("not a program")
}

func TestLocalRuntimePublicAPI(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	rt := stateflow.NewLocal(prog)
	if _, err := rt.Create("Item", stateflow.Str("apple"), stateflow.Int(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create("User", stateflow.Str("u")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke("Item", "apple", "update_stock", stateflow.Int(10)); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Invoke("User", "u", "buy_item", stateflow.Int(2), stateflow.Ref("Item", "apple"))
	if err != nil || res.Err != "" {
		t.Fatalf("%v %s", err, res.Err)
	}
	if !res.Value.B {
		t.Fatalf("buy: %v", res.Value)
	}
}

func TestSimulationStateFlowBackend(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFlow, Epoch: 5 * time.Millisecond,
	})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := simu.Preload("User", stateflow.Str("u")); err != nil {
		t.Fatal(err)
	}
	c := simu.Client()
	if _, err := c.Entity("Item", "apple").Call("update_stock", stateflow.Int(10)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Entity("User", "u").Call("buy_item", stateflow.Int(2), stateflow.Ref("Item", "apple"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || !res.Value.B {
		t.Fatalf("buy: %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatal("latency not measured")
	}
	st, ok := c.Admin().Inspect("User", "u")
	if !ok || st["balance"].I != 94 {
		t.Fatalf("state: %v", st)
	}
}

func TestSimulationStateFunBackend(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFun,
	})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(3)); err != nil {
		t.Fatal(err)
	}
	res, err := simu.Client().Entity("Item", "apple").Call("get_price")
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Value.I != 3 {
		t.Fatalf("get_price: %+v", res)
	}
	if simu.StateFun() == nil || simu.StateFlow() != nil {
		t.Fatal("backend accessors")
	}
}

func TestSimulationCreateThroughDataflow(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{})
	e, err := simu.Client().Create("User", stateflow.Str("fresh"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if e.Key() != "fresh" {
		t.Fatalf("ref: %v", e.Ref())
	}
}

func TestSimulationSubmitRace(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{Epoch: 10 * time.Millisecond})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := simu.Preload("User", stateflow.Str("a")); err != nil {
		t.Fatal(err)
	}
	if err := simu.Preload("User", stateflow.Str("b")); err != nil {
		t.Fatal(err)
	}
	c := simu.Client()
	if _, err := c.Entity("Item", "apple").Call("update_stock", stateflow.Int(3)); err != nil {
		t.Fatal(err)
	}
	// Two buyers race for 3 units, 2 each: transactional isolation admits
	// exactly one winner.
	fa := c.Entity("User", "a").Submit("buy_item", stateflow.Int(2), stateflow.Ref("Item", "apple"))
	fb := c.Entity("User", "b").Submit("buy_item", stateflow.Int(2), stateflow.Ref("Item", "apple"))
	simu.Run(5 * time.Second)
	wins := 0
	for _, f := range []*stateflow.Future{fa, fb} {
		res, done := f.Peek()
		if !done {
			t.Fatalf("%s unresolved after Run", f.Target())
		}
		if res.Value.B {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("winners: %d", wins)
	}
	st, _ := c.Admin().Inspect("Item", "apple")
	if st["stock"].I != 1 {
		t.Fatalf("stock: %v", st["stock"])
	}
}

func TestPreloadAfterStartRejected(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{})
	if err := simu.Preload("User", stateflow.Str("u")); err != nil {
		t.Fatal(err)
	}
	if _, err := simu.Client().Entity("User", "u").Call("buy_item", stateflow.Int(1), stateflow.Ref("Item", "x")); err != nil {
		t.Fatal(err)
	}
	if err := simu.Preload("User", stateflow.Str("late")); err == nil {
		t.Fatal("preload after start must fail")
	}
}

func TestValueConstructors(t *testing.T) {
	if stateflow.Int(3).I != 3 || stateflow.Str("s").Str() != "s" ||
		!stateflow.Bool(true).B || stateflow.Float(1.5).Float() != 1.5 {
		t.Fatal("scalar constructors")
	}
	l := stateflow.List(stateflow.Int(1), stateflow.Int(2))
	if len(l.L.Elems) != 2 {
		t.Fatal("list constructor")
	}
	r := stateflow.Ref("C", "k")
	if r.R.Class != "C" || r.R.Key != "k" {
		t.Fatal("ref constructor")
	}
	if stateflow.None.IsTruthy() {
		t.Fatal("None")
	}
}

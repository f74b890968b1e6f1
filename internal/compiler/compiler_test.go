package compiler

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/ir"
)

// figure1 is the paper's running example (Figure 1).
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

func compileFig1(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := Compile(figure1)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func TestFigure1Operators(t *testing.T) {
	prog := compileFig1(t)
	if len(prog.OperatorOrder) != 2 {
		t.Fatalf("operators: %d", len(prog.OperatorOrder))
	}
	item := prog.Operator("Item")
	if item.KeyAttr != "item_id" || item.KeyParam != "item_id" {
		t.Fatalf("Item key: attr=%s param=%s", item.KeyAttr, item.KeyParam)
	}
	user := prog.Operator("User")
	if user.KeyAttr != "username" {
		t.Fatalf("User key: %s", user.KeyAttr)
	}
}

func TestSimpleMethodsNotSplit(t *testing.T) {
	prog := compileFig1(t)
	for _, name := range []string{"get_price", "update_stock"} {
		m := prog.MethodOf("Item", name)
		if !m.Simple {
			t.Errorf("%s should be simple", name)
		}
		if len(m.Blocks) != 1 {
			t.Errorf("%s blocks: %d", name, len(m.Blocks))
		}
	}
}

func TestBuyItemSplit(t *testing.T) {
	prog := compileFig1(t)
	buy := prog.MethodOf("User", "buy_item")
	if buy.Simple {
		t.Fatal("buy_item must be split")
	}
	if !buy.Transactional {
		t.Fatal("buy_item should be transactional")
	}
	// Count invoke terminators: get_price, update_stock (buy), update_stock (refund).
	var invokes []ir.Invoke
	for _, b := range buy.Blocks {
		if inv, ok := b.Term.(ir.Invoke); ok {
			invokes = append(invokes, inv)
		}
	}
	if len(invokes) != 3 {
		t.Fatalf("invoke terminators: got %d, want 3", len(invokes))
	}
	if invokes[0].Method != "get_price" || invokes[0].Class != "Item" {
		t.Fatalf("first invoke: %s.%s", invokes[0].Class, invokes[0].Method)
	}
	if invokes[1].Method != "update_stock" || invokes[1].AssignTo != "available" {
		t.Fatalf("second invoke: %+v", invokes[1])
	}
	if invokes[2].Method != "update_stock" || invokes[2].AssignTo != "" {
		t.Fatalf("third invoke should discard its result: %+v", invokes[2])
	}
}

func TestBuyItemEntryBlock(t *testing.T) {
	prog := compileFig1(t)
	buy := prog.MethodOf("User", "buy_item")
	entry := buy.Blocks[0]
	// The entry block evaluates the arguments for the remote call and ends
	// with the invocation (§2.4's buy_item_0).
	inv, ok := entry.Term.(ir.Invoke)
	if !ok {
		t.Fatalf("entry terminator: %T", entry.Term)
	}
	if inv.Method != "get_price" {
		t.Fatalf("entry invoke: %s", inv.Method)
	}
	// amount and item are referenced by later blocks, so they must be
	// carried: the entry block's live-out must include them.
	liveOut := strings.Join(entry.LiveOut, ",")
	if !strings.Contains(liveOut, "amount") || !strings.Contains(liveOut, "item") {
		t.Fatalf("entry live-out: %v", entry.LiveOut)
	}
}

func TestBlockParamsAndDefines(t *testing.T) {
	prog := compileFig1(t)
	buy := prog.MethodOf("User", "buy_item")
	// The block after get_price defines total_price (§2.4: "since
	// buy_item_0 defines the variable total_price, its value is returned").
	b1 := buy.Blocks[1]
	var foundDef bool
	for _, d := range b1.Defines {
		if d == "total_price" {
			foundDef = true
		}
	}
	if !foundDef {
		t.Fatalf("block 1 defines: %v", b1.Defines)
	}
	// And it references amount plus the hoisted return temporary.
	var usesAmount bool
	for _, u := range b1.Params {
		if u == "amount" {
			usesAmount = true
		}
	}
	if !usesAmount {
		t.Fatalf("block 1 params: %v", b1.Params)
	}
}

func TestStateMachineShape(t *testing.T) {
	prog := compileFig1(t)
	buy := prog.MethodOf("User", "buy_item")
	sm := buy.SM
	if sm.Entry != 0 {
		t.Fatalf("entry: %d", sm.Entry)
	}
	var calls, resumes, returns int
	for _, tr := range sm.Transitions {
		switch tr.Kind {
		case ir.TransCall:
			calls++
			if tr.Callee == "" {
				t.Fatal("call transition missing callee")
			}
		case ir.TransResume:
			resumes++
		case ir.TransReturn:
			returns++
		}
	}
	if calls != 3 || resumes != 3 {
		t.Fatalf("call/resume transitions: %d/%d", calls, resumes)
	}
	if returns != 2 {
		// return False (refund path) and return True; the first
		// `return False` sits inside an inline if with no remote calls, so
		// it is executed by the interpreter, not the state machine.
		t.Fatalf("return transitions: %d", returns)
	}
}

func TestEdges(t *testing.T) {
	prog := compileFig1(t)
	var userToItem bool
	for _, e := range prog.Edges {
		if e.From == "User" && e.To == "Item" {
			userToItem = true
		}
	}
	if !userToItem {
		t.Fatal("missing User -> Item dataflow edge")
	}
	// Every operator connects to ingress and egress.
	for _, name := range prog.OperatorOrder {
		var in, out bool
		for _, e := range prog.Edges {
			if e.From == "ingress" && e.To == name {
				in = true
			}
			if e.From == name && e.To == "egress" {
				out = true
			}
		}
		if !in || !out {
			t.Fatalf("operator %s not wired to routers", name)
		}
	}
}

func TestValidate(t *testing.T) {
	prog := compileFig1(t)
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDotOutput(t *testing.T) {
	prog := compileFig1(t)
	dot := prog.Dot()
	for _, want := range []string{"digraph", "ingress", "egress", "User", "Item", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestStats(t *testing.T) {
	prog := compileFig1(t)
	st := prog.Stats()
	if st.Operators != 2 {
		t.Fatalf("operators: %d", st.Operators)
	}
	if st.SplitMethods == 0 || st.SimpleMethods == 0 {
		t.Fatalf("split/simple: %d/%d", st.SplitMethods, st.SimpleMethods)
	}
}

const header = `
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
        self.v: int = 0
    def __key__(self) -> str:
        return self.k
    def bump(self, by: int) -> int:
        self.v += by
        return self.v
    def get(self) -> int:
        return self.v

@entity
class C:
    def __init__(self, k: str):
        self.k: str = k
        self.total: int = 0
    def __key__(self) -> str:
        return self.k
`

func compileWith(t *testing.T, methods string) *ir.Program {
	t.Helper()
	prog, err := Compile(header + methods)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func TestSplitForLoop(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D, xs: list[int]) -> int:
        total: int = 0
        for x in xs:
            total += d.bump(x)
        return total
`)
	m := prog.MethodOf("C", "m")
	if m.Simple {
		t.Fatal("loop with remote call must be split")
	}
	// Expect a branch (loop head) and an invoke (body call).
	var hasBranch, hasInvoke, hasBackJump bool
	for _, b := range m.Blocks {
		switch term := b.Term.(type) {
		case ir.Branch:
			hasBranch = true
		case ir.Invoke:
			hasInvoke = true
			_ = term
		case ir.Jump:
			// The body's jump back to the loop head has a target with a
			// lower id than itself.
			if term.To < b.ID {
				hasBackJump = true
			}
		}
	}
	if !hasBranch || !hasInvoke || !hasBackJump {
		t.Fatalf("loop split shape: branch=%v invoke=%v backjump=%v", hasBranch, hasInvoke, hasBackJump)
	}
}

// TestRemoteCallsInControlFlowSplit: a remote call in a loop and one in a
// branch each end a block with an Invoke.
func TestRemoteCallsInControlFlowSplit(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D, xs: list[int]) -> int:
        total: int = 0
        for x in xs:
            total += d.bump(x)
        if total > 10:
            total += d.bump(1)
        return total
`)
	invokes := 0
	for _, b := range prog.MethodOf("C", "m").Blocks {
		if _, ok := b.Term.(ir.Invoke); ok {
			invokes++
		}
	}
	if invokes != 2 {
		t.Fatalf("invoke terminators: got %d, want 2", invokes)
	}
}

func TestSplitWhileWithRemoteCond(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D) -> int:
        while d.get() < 3:
            d.bump(1)
        return d.get()
`)
	m := prog.MethodOf("C", "m")
	if m.Simple {
		t.Fatal("must be split")
	}
	// Remote calls in the condition are re-evaluated every iteration, so
	// there must be an invoke inside the loop that feeds the branch.
	var invokes int
	for _, b := range m.Blocks {
		if _, ok := b.Term.(ir.Invoke); ok {
			invokes++
		}
	}
	if invokes < 3 {
		t.Fatalf("invokes: %d", invokes)
	}
}

func TestBreakInSplitLoop(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D, xs: list[int]) -> int:
        total: int = 0
        for x in xs:
            total += d.bump(x)
            if total > 10:
                break
        return total
`)
	m := prog.MethodOf("C", "m")
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if m.Simple {
		t.Fatal("must be split")
	}
}

func TestNestedEntityCallHoist(t *testing.T) {
	// d.bump(d.get()) hoists the inner call first.
	prog := compileWith(t, `
    def m(self, d: D) -> int:
        return d.bump(d.get())
`)
	m := prog.MethodOf("C", "m")
	var order []string
	for _, b := range m.Blocks {
		if inv, ok := b.Term.(ir.Invoke); ok {
			order = append(order, inv.Method)
		}
	}
	if len(order) != 2 || order[0] != "get" || order[1] != "bump" {
		t.Fatalf("hoist order: %v", order)
	}
}

func TestCtorCallSplit(t *testing.T) {
	prog := compileWith(t, `
    def mk(self, name: str) -> int:
        d: D = D(name)
        return d.get()
`)
	m := prog.MethodOf("C", "mk")
	inv, ok := m.Blocks[0].Term.(ir.Invoke)
	if !ok {
		t.Fatalf("ctor should split: %T", m.Blocks[0].Term)
	}
	if inv.Method != "__init__" || inv.Class != "D" || inv.AssignTo != "d" {
		t.Fatalf("ctor invoke: %+v", inv)
	}
}

func TestSelfCallToSplitMethodIsSplit(t *testing.T) {
	prog := compileWith(t, `
    def outer(self, d: D) -> int:
        return self.inner(d)
    def inner(self, d: D) -> int:
        return d.get()
`)
	outer := prog.MethodOf("C", "outer")
	if outer.Simple {
		t.Fatal("outer transitively needs splitting")
	}
	inv, ok := outer.Blocks[0].Term.(ir.Invoke)
	if !ok || inv.Class != "C" || inv.Method != "inner" {
		t.Fatalf("self-call invoke: %+v", outer.Blocks[0].Term)
	}
}

func TestSelfCallToSimpleMethodInline(t *testing.T) {
	prog := compileWith(t, `
    def helper(self, x: int) -> int:
        return x * 2
    def m(self) -> int:
        return self.helper(21)
`)
	m := prog.MethodOf("C", "m")
	if !m.Simple {
		t.Fatal("self-call to simple method stays inline")
	}
}

func TestShortCircuitRemoteCallRejected(t *testing.T) {
	_, err := Compile(header + `
    def m(self, d: D) -> bool:
        return True and d.get() > 0
`)
	if err == nil || !strings.Contains(err.Error(), "eagerly") {
		t.Fatalf("want short-circuit error, got %v", err)
	}
}

func TestInitWithRemoteCallRejected(t *testing.T) {
	_, err := Compile(`
@entity
class D:
    def __init__(self, k: str):
        self.k: str = k
    def __key__(self) -> str:
        return self.k
    def get(self) -> int:
        return 1

@entity
class C:
    def __init__(self, k: str, d: D):
        self.k: str = k
        self.v: int = d.get()
    def __key__(self) -> str:
        return self.k
`)
	if err == nil || !strings.Contains(err.Error(), "__init__ must not perform remote calls") {
		t.Fatalf("got %v", err)
	}
}

func TestKeyParamRequired(t *testing.T) {
	_, err := Compile(`
@entity
class C:
    def __init__(self, k: str):
        self.k: str = k + "!"
    def __key__(self) -> str:
        return self.k
`)
	if err == nil || !strings.Contains(err.Error(), "routed") {
		t.Fatalf("got %v", err)
	}
}

func TestNonEntityRejected(t *testing.T) {
	_, err := Compile(`
class C:
    def __init__(self, k: str):
        self.k: str = k
`)
	if err == nil || !strings.Contains(err.Error(), "@entity") {
		t.Fatalf("got %v", err)
	}
}

func TestReadOnlyAnalysis(t *testing.T) {
	prog := compileWith(t, `
    def reader(self, d: D) -> int:
        return d.get()
    def writer(self, d: D) -> int:
        return d.bump(1)
`)
	if !prog.MethodOf("C", "reader").ReadOnly {
		t.Fatal("reader should be read-only")
	}
	if prog.MethodOf("C", "writer").ReadOnly {
		t.Fatal("writer is not read-only")
	}
	if !prog.MethodOf("D", "get").ReadOnly {
		t.Fatal("D.get should be read-only")
	}
	if prog.MethodOf("D", "bump").ReadOnly {
		t.Fatal("D.bump writes state")
	}
}

func TestUnreachableBlocksPruned(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D) -> int:
        x: int = d.get()
        if x > 0:
            return 1
        return 2
`)
	m := prog.MethodOf("C", "m")
	for _, b := range m.Blocks {
		// Every block must be reachable: entry or a target of some edge.
		if b.ID == 0 {
			continue
		}
		reachable := false
		for _, other := range m.Blocks {
			for _, s := range other.Term.Successors() {
				if s == b.ID {
					reachable = true
				}
			}
		}
		if !reachable {
			t.Fatalf("block %d (%s) unreachable", b.ID, b.Name)
		}
	}
}

func TestElifSplit(t *testing.T) {
	prog := compileWith(t, `
    def m(self, d: D, n: int) -> int:
        if n == 1:
            return d.bump(1)
        elif n == 2:
            return d.bump(2)
        else:
            return d.bump(3)
`)
	m := prog.MethodOf("C", "m")
	var invokes int
	for _, b := range m.Blocks {
		if _, ok := b.Term.(ir.Invoke); ok {
			invokes++
		}
	}
	if invokes != 3 {
		t.Fatalf("invokes: %d", invokes)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleCallsSameStatement(t *testing.T) {
	prog := compileWith(t, `
    def m(self, a: D, b: D) -> int:
        return a.get() + b.get()
`)
	m := prog.MethodOf("C", "m")
	var invokes int
	for _, blk := range m.Blocks {
		if _, ok := blk.Term.(ir.Invoke); ok {
			invokes++
		}
	}
	if invokes != 2 {
		t.Fatalf("invokes: %d", invokes)
	}
}

func TestBlockNamesDense(t *testing.T) {
	prog := compileFig1(t)
	buy := prog.MethodOf("User", "buy_item")
	for i, b := range buy.Blocks {
		want := "buy_item_" + string(rune('0'+i))
		if b.Name != want {
			t.Fatalf("block %d name: %s want %s", i, b.Name, want)
		}
	}
}

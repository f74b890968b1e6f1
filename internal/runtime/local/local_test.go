package local

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
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

func newFig1(t *testing.T) *Runtime {
	t.Helper()
	prog, err := compiler.Compile(figure1)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return New(prog)
}

func mustInvoke(t *testing.T, r *Runtime, class, key, method string, args ...interp.Value) interp.Value {
	t.Helper()
	res, err := r.Invoke(class, key, method, args...)
	if err != nil {
		t.Fatalf("invoke %s.%s: %v", class, method, err)
	}
	if res.Err != "" {
		t.Fatalf("invoke %s.%s: runtime error: %s", class, method, res.Err)
	}
	return res.Value
}

func intAttr(t *testing.T, r *Runtime, class, key, attr string) int64 {
	t.Helper()
	st, ok := r.State(class, key)
	if !ok {
		t.Fatalf("entity %s<%s> missing", class, key)
	}
	v, ok := st[attr]
	if !ok {
		t.Fatalf("attr %s missing", attr)
	}
	return v.I
}

func TestCreateEntities(t *testing.T) {
	r := newFig1(t)
	ref, err := r.Create("Item", interp.StrV("apple"), interp.IntV(5))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Class != "Item" || ref.Key != "apple" {
		t.Fatalf("ref: %v", ref)
	}
	if got := intAttr(t, r, "Item", "apple", "price"); got != 5 {
		t.Fatalf("price: %d", got)
	}
	if got := intAttr(t, r, "Item", "apple", "stock"); got != 0 {
		t.Fatalf("stock: %d", got)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("User", interp.StrV("alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("User", interp.StrV("alice")); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestSimpleMethod(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("Item", interp.StrV("apple"), interp.IntV(7)); err != nil {
		t.Fatal(err)
	}
	v := mustInvoke(t, r, "Item", "apple", "get_price")
	if v.I != 7 {
		t.Fatalf("get_price: %v", v)
	}
	// Simple call: no operator-to-operator hops.
	res, _ := r.Invoke("Item", "apple", "get_price")
	if res.Hops != 0 {
		t.Fatalf("hops: %d", res.Hops)
	}
}

func TestBuyItemSuccess(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("Item", interp.StrV("apple"), interp.IntV(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("User", interp.StrV("alice")); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, r, "Item", "apple", "update_stock", interp.IntV(10))

	v := mustInvoke(t, r, "User", "alice", "buy_item",
		interp.IntV(3), interp.RefV("Item", "apple"))
	if !v.B {
		t.Fatalf("buy_item returned %v", v)
	}
	if got := intAttr(t, r, "User", "alice", "balance"); got != 100-15 {
		t.Fatalf("balance: %d", got)
	}
	if got := intAttr(t, r, "Item", "apple", "stock"); got != 7 {
		t.Fatalf("stock: %d", got)
	}
}

func TestBuyItemInsufficientBalance(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("Item", interp.StrV("tv"), interp.IntV(999)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("User", interp.StrV("bob")); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, r, "Item", "tv", "update_stock", interp.IntV(5))

	v := mustInvoke(t, r, "User", "bob", "buy_item",
		interp.IntV(1), interp.RefV("Item", "tv"))
	if v.B {
		t.Fatal("purchase should fail on balance")
	}
	if got := intAttr(t, r, "User", "bob", "balance"); got != 100 {
		t.Fatalf("balance must be untouched: %d", got)
	}
	if got := intAttr(t, r, "Item", "tv", "stock"); got != 5 {
		t.Fatalf("stock must be untouched: %d", got)
	}
}

func TestBuyItemOutOfStockCompensates(t *testing.T) {
	// The refund path: update_stock goes negative, the method calls
	// update_stock(amount) to restore, and returns False.
	r := newFig1(t)
	if _, err := r.Create("Item", interp.StrV("pen"), interp.IntV(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("User", interp.StrV("carol")); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, r, "Item", "pen", "update_stock", interp.IntV(2))

	v := mustInvoke(t, r, "User", "carol", "buy_item",
		interp.IntV(5), interp.RefV("Item", "pen"))
	if v.B {
		t.Fatal("purchase should fail on stock")
	}
	if got := intAttr(t, r, "Item", "pen", "stock"); got != 2 {
		t.Fatalf("stock must be compensated back to 2: %d", got)
	}
	if got := intAttr(t, r, "User", "carol", "balance"); got != 100 {
		t.Fatalf("balance: %d", got)
	}
}

func TestBuyItemHopsCount(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("Item", interp.StrV("apple"), interp.IntV(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("User", interp.StrV("alice")); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, r, "Item", "apple", "update_stock", interp.IntV(10))
	res, err := r.Invoke("User", "alice", "buy_item",
		interp.IntV(1), interp.RefV("Item", "apple"))
	if err != nil || res.Err != "" {
		t.Fatalf("%v %s", err, res.Err)
	}
	// get_price: User->Item->User (2 hops), update_stock: 2 more.
	if res.Hops != 4 {
		t.Fatalf("hops: got %d, want 4", res.Hops)
	}
}

func TestInvokeMissingEntity(t *testing.T) {
	r := newFig1(t)
	res, err := r.Invoke("User", "ghost", "buy_item",
		interp.IntV(1), interp.RefV("Item", "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" || !strings.Contains(res.Err, "does not exist") {
		t.Fatalf("want missing-entity error, got %q", res.Err)
	}
}

func TestRemoteCallOnMissingEntityAborts(t *testing.T) {
	r := newFig1(t)
	if _, err := r.Create("User", interp.StrV("alice")); err != nil {
		t.Fatal(err)
	}
	res, err := r.Invoke("User", "alice", "buy_item",
		interp.IntV(1), interp.RefV("Item", "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Fatal("expected error for missing remote entity")
	}
	if got := intAttr(t, r, "User", "alice", "balance"); got != 100 {
		t.Fatalf("caller state must be unchanged: %d", got)
	}
}

// --- control flow through the dataflow ---

const loops = `
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

    def get(self) -> int:
        return self.n

@entity
class Driver:
    def __init__(self, name: str):
        self.name: str = name
        self.acc: int = 0

    def __key__(self) -> str:
        return self.name

    def sum_list(self, c: Counter, xs: list[int]) -> int:
        total: int = 0
        for x in xs:
            total += c.bump(x)
        return total

    def bump_until(self, c: Counter, limit: int) -> int:
        while c.get() < limit:
            c.bump(1)
        return c.get()

    def bump_with_break(self, c: Counter, xs: list[int], stop: int) -> int:
        total: int = 0
        for x in xs:
            total += c.bump(x)
            if total > stop:
                break
        return total

    def nested_calls(self, c: Counter) -> int:
        return c.bump(c.bump(1))

    def spawn(self, name: str, seed: int) -> int:
        c: Counter = Counter(name)
        c.bump(seed)
        return c.get()

    def classify(self, c: Counter, n: int) -> str:
        if n == 1:
            c.bump(10)
            return "one"
        elif n == 2:
            c.bump(20)
            return "two"
        else:
            c.bump(30)
            return "many"
`

func newLoops(t *testing.T) *Runtime {
	t.Helper()
	prog, err := compiler.Compile(loops)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := New(prog)
	if _, err := r.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("Driver", interp.StrV("d1")); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSplitForLoopExecution(t *testing.T) {
	r := newLoops(t)
	v := mustInvoke(t, r, "Driver", "d1", "sum_list",
		interp.RefV("Counter", "c1"), interp.ListV(interp.IntV(1), interp.IntV(2), interp.IntV(3)))
	// bump returns running counter: 1, 3, 6 -> total 10.
	if v.I != 10 {
		t.Fatalf("sum_list: %v", v)
	}
	if got := intAttr(t, r, "Counter", "c1", "n"); got != 6 {
		t.Fatalf("counter: %d", got)
	}
}

func TestSplitWhileWithRemoteCond(t *testing.T) {
	r := newLoops(t)
	v := mustInvoke(t, r, "Driver", "d1", "bump_until",
		interp.RefV("Counter", "c1"), interp.IntV(5))
	if v.I != 5 {
		t.Fatalf("bump_until: %v", v)
	}
}

func TestBreakInSplitLoop(t *testing.T) {
	r := newLoops(t)
	v := mustInvoke(t, r, "Driver", "d1", "bump_with_break",
		interp.RefV("Counter", "c1"),
		interp.ListV(interp.IntV(5), interp.IntV(5), interp.IntV(5)), interp.IntV(10))
	// totals: 5, then 5+10=15 -> break. counter: 5 then 10.
	if v.I != 15 {
		t.Fatalf("bump_with_break: %v", v)
	}
	if got := intAttr(t, r, "Counter", "c1", "n"); got != 10 {
		t.Fatalf("counter: %d", got)
	}
}

func TestNestedRemoteCalls(t *testing.T) {
	r := newLoops(t)
	v := mustInvoke(t, r, "Driver", "d1", "nested_calls", interp.RefV("Counter", "c1"))
	// inner bump(1) -> 1; outer bump(1) -> 2.
	if v.I != 2 {
		t.Fatalf("nested_calls: %v", v)
	}
}

func TestConstructorFromMethod(t *testing.T) {
	r := newLoops(t)
	v := mustInvoke(t, r, "Driver", "d1", "spawn", interp.StrV("c9"), interp.IntV(42))
	if v.I != 42 {
		t.Fatalf("spawn: %v", v)
	}
	if _, ok := r.State("Counter", "c9"); !ok {
		t.Fatal("spawned counter missing")
	}
}

func TestElifPaths(t *testing.T) {
	r := newLoops(t)
	cases := []struct {
		n    int64
		want string
		bump int64
	}{{1, "one", 10}, {2, "two", 30}, {5, "many", 60}}
	for _, c := range cases {
		v := mustInvoke(t, r, "Driver", "d1", "classify",
			interp.RefV("Counter", "c1"), interp.IntV(c.n))
		if v.Str() != c.want {
			t.Fatalf("classify(%d): %v", c.n, v)
		}
		if got := intAttr(t, r, "Counter", "c1", "n"); got != c.bump {
			t.Fatalf("counter after classify(%d): %d want %d", c.n, got, c.bump)
		}
	}
}

func TestKeysListing(t *testing.T) {
	r := newLoops(t)
	keys := r.Keys("Counter")
	if len(keys) != 1 || keys[0] != "c1" {
		t.Fatalf("keys: %v", keys)
	}
}

package compiler_test

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/ir"
)

// stateFreeSrc holds one method per case of TestStateFreeContinuations.
const stateFreeSrc = `
@entity
class Item:
    def __init__(self, name: str, price: int):
        self.name: str = name
        self.price: int = price
        self.stock: int = 0

    def __key__(self) -> str:
        return self.name

    def get_price(self) -> int:
        return self.price

    def update_stock(self, amount: int) -> bool:
        self.stock -= amount
        return True

@entity
class Account:
    def __init__(self, owner: str, balance: int):
        self.owner: str = owner
        self.balance: int = balance
        self.log: list[int] = []

    def __key__(self) -> str:
        return self.owner

    def read(self) -> int:
        return self.balance

    def deposit(self, amount: int) -> bool:
        self.balance += amount
        return True

    def helper(self) -> int:
        return 1

    @transactional
    def transfer(self, amount: int, to: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        to.deposit(amount)
        return True

    def fetch(self, to: Account) -> int:
        return to.read()

    def plus_one(self, to: Account) -> int:
        t: int = to.read()
        x: int = t + 1
        return x

    @transactional
    def buy_item(self, amount: int, item: Item) -> bool:
        total_price: int = amount * item.get_price()
        if self.balance < total_price:
            return False
        item.update_stock(amount)
        self.balance -= total_price
        return True

    def with_helper(self, to: Account) -> int:
        t: int = to.read()
        return t + self.helper()

    def returns_self(self, to: Account) -> Account:
        to.read()
        return self

    def grows_a_list(self, to: Account) -> list[int]:
        l: list[int] = self.log
        t: int = to.read()
        l.append(t)
        return l

    def sets_a_slot(self, to: Account) -> list[int]:
        l: list[int] = self.log
        t: int = to.read()
        l[0] = t
        return l

    def branches(self, to: Account) -> int:
        t: int = to.read()
        if t > 0:
            return to.read()
        return 0

    def loops(self, to: Account) -> int:
        n: int = 0
        while n < 3:
            n += to.read()
        return n
`

// TestStateFreeContinuations pins the rule that lets a runtime run a
// continuation where its call returns: a resume block is StateFree when it
// ends in a Return and neither its statements nor its return value mention
// self or write a container. want lists the method's resume blocks in
// invoke order.
func TestStateFreeContinuations(t *testing.T) {
	prog, err := compiler.Compile(stateFreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, why string
		want        []bool
	}{
		{"transfer", "`return True`", []bool{true}},
		{"fetch", "`return __t1`", []bool{true}},
		{"plus_one", "`x = t + 1; return x`", []bool{true}},
		{"buy_item", "the price's continuation invokes update_stock; the stock's writes self.balance", []bool{false, false}},
		{"with_helper", "calls the non-split self.helper()", []bool{false}},
		{"returns_self", "returns self", []bool{false}},
		{"grows_a_list", "appends to a local that aliases self.log", []bool{false}},
		{"sets_a_slot", "assigns a subscript of a local that aliases self.log", []bool{false}},
		{"branches", "the first continuation is a Branch block; the second is `return __t2`", []bool{false, true}},
		{"loops", "the continuation jumps back to the loop head", []bool{false}},
	} {
		m := prog.MethodOf("Account", tc.method)
		var got []bool
		for _, b := range m.Blocks {
			if inv, ok := b.Term.(ir.Invoke); ok {
				got = append(got, m.Blocks[inv.To].StateFree)
			}
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d resume blocks, want %d:\n%s", tc.method, len(got), len(tc.want), m.Listing())
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s (%s): resume %d StateFree = %v, want %v:\n%s", tc.method, tc.why, i, got[i], tc.want[i], m.Listing())
			}
		}
	}
	// Only resume blocks are marked: branches' `return 0`, reached by its
	// Branch, runs in the event that evaluated the condition anyway.
	m := prog.MethodOf("Account", "branches")
	for _, b := range m.Blocks {
		if b.StateFree != (b.Name == "branches_3") {
			t.Errorf("branches block %d StateFree = %v:\n%s", b.ID, b.StateFree, m.Listing())
		}
	}
}

// TestStateFreeIsShown: stateflowc's listing marks every in-place block,
// and the program report counts them and names them per method.
func TestStateFreeIsShown(t *testing.T) {
	prog, err := compiler.Compile(stateFreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	const mark = "# runs in place: reads no state"
	if got := strings.Count(prog.MethodOf("Account", "transfer").Listing(), mark); got != 1 {
		t.Fatalf("transfer listing marks %d blocks, want 1:\n%s", got, prog.MethodOf("Account", "transfer").Listing())
	}
	if strings.Contains(prog.MethodOf("Account", "buy_item").Listing(), mark) {
		t.Fatal("buy_item's listing marks a block that reads state")
	}
	if got := prog.Stats().InPlaceBlocks; got != 4 {
		t.Fatalf("InPlaceBlocks = %d, want 4 (transfer, fetch, plus_one, branches)", got)
	}
	report := prog.Report()
	for _, want := range []string{"(4 run in place)", "transfer_1 runs in place"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}
}

package compiler

import (
	"slices"
	"testing"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
)

const layoutSrc = `
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

func TestLayoutsStamped(t *testing.T) {
	prog := MustCompile(layoutSrc)
	for i, name := range prog.OperatorOrder {
		op := prog.Operators[name]
		if op.Layout == nil {
			t.Fatalf("%s has no class layout", name)
		}
		if op.Layout.ID != i {
			t.Fatalf("%s class id %d, want %d", name, op.Layout.ID, i)
		}
		if op.Layout.NumSlots() != len(op.Attrs) {
			t.Fatalf("%s layout covers %d of %d attrs", name, op.Layout.NumSlots(), len(op.Attrs))
		}
		for _, mn := range op.MethodOrder {
			if op.Methods[mn].Frame == nil {
				t.Fatalf("%s.%s has no frame layout", name, mn)
			}
		}
	}
}

// Parameters must occupy the leading frame slots in declaration order —
// interp.Frame.Bind relies on it for slot-indexed binding.
func TestFrameLayoutParamsLeading(t *testing.T) {
	prog := MustCompile(layoutSrc)
	m := prog.MethodOf("User", "buy_item")
	if len(m.Frame.Vars) < 2 || m.Frame.Vars[0] != "amount" || m.Frame.Vars[1] != "item" {
		t.Fatalf("frame vars: %v", m.Frame.Vars)
	}
	// Locals defined across the method are covered too.
	for _, v := range []string{"total_price", "available"} {
		if !slices.Contains(m.Frame.Vars, v) {
			t.Fatalf("local %s missing from frame layout: %v", v, m.Frame.Vars)
		}
	}
}

// Every Name and self-Attr node in executed code must carry a slot stamp,
// in both split blocks and the pre-split bodies simple execution uses.
func TestASTSlotsStamped(t *testing.T) {
	prog := MustCompile(layoutSrc)
	for _, name := range prog.OperatorOrder {
		op := prog.Operators[name]
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			check := func(stmts []ast.Stmt) {
				ast.WalkStmts(stmts, func(s ast.Stmt) {
					for _, e := range ast.ExprsOf(s) {
						ast.WalkExpr(e, func(x ast.Expr) bool {
							switch n := x.(type) {
							case *ast.Name:
								if n.Slot == 0 {
									t.Errorf("%s.%s: name %s unstamped", name, mn, n.Ident)
								}
							case *ast.Attr:
								if _, isSelf := n.Recv.(*ast.SelfRef); isSelf && n.Slot == 0 {
									t.Errorf("%s.%s: attr %s unstamped", name, mn, n.Field)
								}
							}
							return true
						})
					}
				})
			}
			check(m.Body)
			for _, b := range m.Blocks {
				check(b.Stmts)
				if inv, ok := b.Term.(ir.Invoke); ok {
					for _, a := range inv.Args {
						ast.WalkExpr(a, func(x ast.Expr) bool {
							if n, ok := x.(*ast.Name); ok && n.Slot == 0 {
								t.Errorf("%s.%s: invoke arg %s unstamped", name, mn, n.Ident)
							}
							return true
						})
					}
				}
			}
		}
	}
}

// The stamped slots must agree between blocks and bodies: a Name's slot
// always resolves to its own identifier in the method frame.
func TestSlotStampsConsistent(t *testing.T) {
	prog := MustCompile(layoutSrc)
	for _, name := range prog.OperatorOrder {
		op := prog.Operators[name]
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			ast.WalkStmts(m.Body, func(s ast.Stmt) {
				for _, e := range ast.ExprsOf(s) {
					ast.WalkExpr(e, func(x ast.Expr) bool {
						if n, ok := x.(*ast.Name); ok && n.Slot > 0 {
							if m.Frame.Vars[n.Slot-1] != n.Ident {
								t.Errorf("%s.%s: %s stamped to slot of %s",
									name, mn, n.Ident, m.Frame.Vars[n.Slot-1])
							}
						}
						return true
					})
				}
			})
		}
	}
}

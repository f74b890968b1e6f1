// Layout computation and slot stamping: the final compiler pass. The
// static analysis already determined every class's attribute set and —
// via the splitter's def/use analysis — every method's variable set, so
// this pass lowers both to dense integer layouts (ir.ClassLayout and
// ir.FrameLayout) and stamps slot indices directly onto what the runtime
// executes: 1-based slots into the AST nodes (ast.Name.Slot, ast.Attr.Slot,
// ast.ForStmt.VarSlot) and every invoke's result (ir.Invoke.Result), and
// each block's live-out slots (ir.Block.LiveOutSlots). Runtimes then read,
// write, resume and suspend frames by slice index instead of hashing names.
package compiler

import (
	"fmt"
	"sort"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
)

// computeLayouts builds and stamps all layouts for a compiled program.
func computeLayouts(prog *ir.Program) {
	for classID, name := range prog.OperatorOrder {
		op := prog.Operators[name]
		attrs := make([]string, len(op.Attrs))
		for i, a := range op.Attrs {
			attrs[i] = a.Name
		}
		op.Layout = ir.NewClassLayout(name, classID, attrs)
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			m.Frame = frameLayout(m)
			stampMethod(m, op.Layout)
		}
	}
}

// frameLayout collects every variable a method can read or write —
// parameters, assignment targets, loop variables, splitter temporaries,
// invoke result targets, and plain reads (which must resolve to a slot so
// the undefined-variable check stays cheap) — and assigns dense slots:
// parameters first in declaration order, the rest sorted for determinism.
func frameLayout(m *ir.Method) *ir.FrameLayout {
	seen := map[string]bool{}
	var vars []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			vars = append(vars, n)
		}
	}
	for _, p := range m.Params {
		add(p.Name)
	}
	nParams := len(vars)
	collect := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			if n, ok := x.(*ast.Name); ok {
				add(n.Ident)
			}
			return true
		})
	}
	walkStmts := func(stmts []ast.Stmt) {
		ast.WalkStmts(stmts, func(s ast.Stmt) {
			if f, ok := s.(*ast.ForStmt); ok {
				add(f.Var)
			}
			for _, e := range ast.ExprsOf(s) {
				collect(e)
			}
		})
	}
	walkStmts(m.Body)
	for _, b := range m.Blocks {
		walkStmts(b.Stmts)
		switch t := b.Term.(type) {
		case ir.Return:
			collect(t.Value)
		case ir.Branch:
			collect(t.Cond)
		case ir.Invoke:
			collect(t.Recv)
			for _, a := range t.Args {
				collect(a)
			}
			add(t.AssignTo)
		}
	}
	sort.Strings(vars[nParams:])
	return ir.NewFrameLayout(vars)
}

// stampMethod writes slot indices into every AST node of the method: both
// the pre-split Body (executed by simple methods, __init__ and inline
// self-calls) and the split blocks (which share and extend those nodes);
// and onto every block its live-out slots and every invoke its result slot.
// Liveness names only variables the blocks mention, so each has a slot.
func stampMethod(m *ir.Method, cl *ir.ClassLayout) {
	index := make(map[string]int, len(m.Frame.Vars))
	for i, v := range m.Frame.Vars {
		index[v] = i
	}
	slotOf := func(name string) int {
		s, ok := index[name]
		if !ok {
			panic(fmt.Sprintf("compiler: %s is not in the frame layout of %s", name, m.Name))
		}
		return s
	}
	stampExpr := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			switch n := x.(type) {
			case *ast.Name:
				n.Slot = slotOf(n.Ident) + 1
			case *ast.Attr:
				if _, isSelf := n.Recv.(*ast.SelfRef); isSelf {
					if s, ok := cl.SlotOf(n.Field); ok {
						n.Slot = s + 1
					}
				}
			}
			return true
		})
	}
	stampStmts := func(stmts []ast.Stmt) {
		ast.WalkStmts(stmts, func(s ast.Stmt) {
			if f, ok := s.(*ast.ForStmt); ok {
				f.VarSlot = slotOf(f.Var) + 1
			}
			for _, e := range ast.ExprsOf(s) {
				stampExpr(e)
			}
		})
	}
	stampStmts(m.Body)
	for _, b := range m.Blocks {
		stampStmts(b.Stmts)
		switch t := b.Term.(type) {
		case ir.Return:
			stampExpr(t.Value)
		case ir.Branch:
			stampExpr(t.Cond)
		case ir.Invoke:
			stampExpr(t.Recv)
			for _, a := range t.Args {
				stampExpr(a)
			}
			if t.AssignTo != "" {
				t.Result = slotOf(t.AssignTo) + 1
				b.Term = t
			}
		}
		b.LiveOutSlots = make([]int, len(b.LiveOut))
		for i, v := range b.LiveOut {
			b.LiveOutSlots[i] = slotOf(v)
		}
	}
}

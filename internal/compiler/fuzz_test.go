package compiler_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	adversarial "statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/ir"
	dsl "statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/types"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// exampleSources returns the DSL program each example under examples/
// compiles: the string constant named source in its main.go (the tpcc
// example compiles tpcc.Program() and has none).
func exampleSources(t testing.TB) []string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	var out []string
	for _, path := range files {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Values) != 1 || spec.Names[0].Name != "source" {
				return true
			}
			src, err := strconv.Unquote(spec.Values[0].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, src)
			return false
		})
	}
	return out
}

// corpus returns every DSL program shipped in the tree: the examples'
// sources, YCSB, TPC-C and the adversarial chaos program.
func corpus(t testing.TB) []string {
	return append(exampleSources(t), ycsb.Program(), tpcc.Program(), adversarial.Program())
}

// FuzzCompile feeds arbitrary text to the one parser in this repository
// that takes what a user typed: lexer, parser, type checker, function
// splitting and layout assignment must hand back a program or an error,
// whatever the text. The corpus is every DSL source in the tree, so the
// seed run (part of go test) also checks that each of them still compiles.
func FuzzCompile(f *testing.F) {
	for _, src := range corpus(f) {
		if _, err := compiler.Compile(src); err != nil {
			f.Fatalf("a program shipped in the tree does not compile: %v", err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := compiler.Compile(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
		if err != nil {
			return
		}
		if ls := prog.Layouts(); len(ls.ByID) != len(prog.Operators) {
			t.Fatalf("%d layouts for %d operators", len(ls.ByID), len(prog.Operators))
		}
		checkEffects(t, prog)
		checkStamps(t, prog)
	})
}

// blockCalls calls fn on every call a block's statements and terminator
// hold: every call the interpreter can evaluate.
func blockCalls(b *ir.Block, fn func(*dsl.Call)) {
	visit := func(e dsl.Expr) {
		dsl.WalkExpr(e, func(x dsl.Expr) bool {
			if c, ok := x.(*dsl.Call); ok {
				fn(c)
			}
			return true
		})
	}
	dsl.WalkStmts(b.Stmts, func(s dsl.Stmt) {
		for _, e := range dsl.ExprsOf(s) {
			visit(e)
		}
	})
	switch term := b.Term.(type) {
	case ir.Return:
		visit(term.Value)
	case ir.Branch:
		visit(term.Cond)
	case ir.Invoke:
		visit(term.Recv)
		for _, a := range term.Args {
			visit(a)
		}
	}
}

// checkStamps asserts the invariant the runtime addresses state and calls
// by: in every method's body and blocks, every variable, self attribute and
// loop variable carries the 1-based slot of its own name in its layout,
// every call result slot is that of its AssignTo name (0 when discarded),
// and every block's live-out slots are those of its LiveOut names; every
// call a block evaluates carries exactly one stamp, the builtin entry or
// the self-call callee of its own name.
func checkStamps(t *testing.T, prog *ir.Program) {
	for _, cn := range prog.OperatorOrder {
		op := prog.Operators[cn]
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			for _, b := range m.Blocks {
				blockCalls(b, func(c *dsl.Call) {
					switch {
					case (c.Builtin == 0) == (c.Callee == 0):
						t.Fatalf("%s.%s: %s calls %s with builtin stamp %d and callee stamp %d", cn, mn, b.Name, c.Func, c.Builtin, c.Callee)
					case c.Builtin != 0 && types.Builtins[c.Builtin-1].Name != c.Func:
						t.Fatalf("%s.%s: %s calls %s stamped as builtin %s", cn, mn, b.Name, c.Func, types.Builtins[c.Builtin-1].Name)
					case c.Callee != 0 && prog.Methods[c.Callee-1] != op.Methods[c.Func]:
						t.Fatalf("%s.%s: %s calls self.%s stamped with callee %s", cn, mn, b.Name, c.Func, prog.Methods[c.Callee-1].Name)
					}
				})
			}
			slotted := func(what, name string, slot int, names []string) {
				if slot < 1 || slot > len(names) || names[slot-1] != name {
					t.Fatalf("%s.%s: %s %s carries slot %d of layout %v", cn, mn, what, name, slot, names)
				}
			}
			expr := func(e dsl.Expr) {
				dsl.WalkExpr(e, func(x dsl.Expr) bool {
					switch n := x.(type) {
					case *dsl.Name:
						slotted("variable", n.Ident, n.Slot, m.Frame.Vars)
					case *dsl.Attr:
						if _, self := n.Recv.(*dsl.SelfRef); self {
							slotted("attribute", n.Field, n.Slot, op.Layout.Attrs)
						}
					}
					return true
				})
			}
			stmts := func(ss []dsl.Stmt) {
				dsl.WalkStmts(ss, func(s dsl.Stmt) {
					if f, ok := s.(*dsl.ForStmt); ok {
						slotted("loop variable", f.Var, f.VarSlot, m.Frame.Vars)
					}
					for _, e := range dsl.ExprsOf(s) {
						expr(e)
					}
				})
			}
			stmts(m.Body)
			for _, b := range m.Blocks {
				stmts(b.Stmts)
				switch term := b.Term.(type) {
				case ir.Return:
					expr(term.Value)
				case ir.Branch:
					expr(term.Cond)
				case ir.Invoke:
					expr(term.Recv)
					for _, a := range term.Args {
						expr(a)
					}
					if term.AssignTo != "" {
						slotted("call result", term.AssignTo, term.Result, m.Frame.Vars)
					} else if term.Result != 0 {
						t.Fatalf("%s.%s: %s discards its result but carries slot %d", cn, mn, b.Name, term.Result)
					}
				}
				if len(b.LiveOutSlots) != len(b.LiveOut) {
					t.Fatalf("%s.%s: %s has %d live-out slots for live-out %v", cn, mn, b.Name, len(b.LiveOutSlots), b.LiveOut)
				}
				for i, v := range b.LiveOut {
					slotted("live-out variable", v, b.LiveOutSlots[i]+1, m.Frame.Vars)
				}
			}
		}
	}
}

// checkEffects asserts how the derived bits compose: a simple method is one
// block that returns and is ref-closed; a read-only or ref-closed caller
// only invokes methods that are too; a read-only method calls no builtin
// that mutates its receiver and runs no inline self-call that writes; and
// only a continuation that returns runs in place.
func checkEffects(t *testing.T, prog *ir.Program) {
	for _, cn := range prog.OperatorOrder {
		for _, mn := range prog.Operators[cn].MethodOrder {
			m := prog.MethodOf(cn, mn)
			if m.Simple {
				if _, ret := m.Blocks[0].Term.(ir.Return); len(m.Blocks) != 1 || !ret || !m.RefClosed {
					t.Fatalf("simple %s.%s: %d blocks, ends in return %v, ref-closed %v", cn, mn, len(m.Blocks), ret, m.RefClosed)
				}
			}
			resumes := map[ir.BlockID]bool{}
			for _, b := range m.Blocks {
				blockCalls(b, func(c *dsl.Call) {
					if !m.ReadOnly {
						return
					}
					if c.Builtin != 0 && types.Builtins[c.Builtin-1].Mutates {
						t.Fatalf("read-only %s.%s calls %s, which mutates its receiver", cn, mn, c.Func)
					}
					if c.Callee != 0 && !prog.Methods[c.Callee-1].ReadOnly {
						t.Fatalf("read-only %s.%s calls self.%s, which writes", cn, mn, c.Func)
					}
				})
				inv, ok := b.Term.(ir.Invoke)
				if !ok {
					continue
				}
				resumes[inv.To] = true
				if inv.Recv == nil {
					continue
				}
				callee := prog.MethodOf(inv.Class, inv.Method)
				if m.ReadOnly && !callee.ReadOnly {
					t.Fatalf("read-only %s.%s invokes %s.%s, which writes", cn, mn, inv.Class, inv.Method)
				}
				if m.RefClosed && !callee.RefClosed {
					t.Fatalf("ref-closed %s.%s invokes %s.%s, which is not", cn, mn, inv.Class, inv.Method)
				}
			}
			for _, b := range m.Blocks {
				if _, ret := b.Term.(ir.Return); b.StateFree && (!resumes[b.ID] || !ret) {
					t.Fatalf("%s.%s: %s runs in place but is not a continuation that returns", cn, mn, b.Name)
				}
			}
		}
	}
}

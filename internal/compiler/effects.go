// Effect analysis. One classifier says what a run of statements does to
// entity state, and every bit the IR derives from the code comes from it:
// per method, Simple (nothing leaves the operator) and ReadOnly (nothing
// writes), folded over the callees; per split method, StateFree on the
// continuations that read no state and RefClosed (the request names every
// entity the method reaches). The checker rejects call cycles, so both
// folds are memoised recursions into the callees, with no fixpoint.
package compiler

import (
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/types"
)

// effect is what a run of statements does.
type effect struct {
	self    bool               // mentions self: an attribute or a self-call
	writes  bool               // assigns a self attribute or a subscript, or calls a builtin that Mutates
	calls   []types.CallTarget // resolved calls: constructors, remote calls and self-calls
	assigns []string           // local names assigned, loop variables included
}

// classify reports what stmts, nested ones included, and then the
// expression ret (nil for none) do. A builtin whose table entry Mutates
// writes on any receiver, since a local may alias a state container. In a
// split method's block, a resolved call is a self-call (the splitter turns
// every remote call and constructor into an Invoke), so self covers it.
func classify(info *types.Info, stmts []ast.Stmt, ret ast.Expr) effect {
	var e effect
	visit := func(x ast.Expr) {
		ast.WalkExpr(x, func(x ast.Expr) bool {
			switch x := x.(type) {
			case *ast.SelfRef:
				e.self = true
			case *ast.Call:
				if tgt, ok := info.Calls[x]; ok {
					e.calls = append(e.calls, tgt)
				} else if x.Builtin != 0 && types.Builtins[x.Builtin-1].Mutates {
					e.writes = true
				}
			}
			return true
		})
	}
	ast.WalkStmts(stmts, func(s ast.Stmt) {
		var target ast.Expr
		switch st := s.(type) {
		case *ast.AssignStmt:
			target = st.Target
		case *ast.AugAssignStmt:
			target = st.Target
		case *ast.ForStmt:
			e.assigns = append(e.assigns, st.Var)
		}
		switch t := target.(type) {
		case *ast.Name:
			e.assigns = append(e.assigns, t.Ident)
		case *ast.Attr:
			_, isSelf := t.Recv.(*ast.SelfRef)
			e.writes = e.writes || isSelf
		case *ast.Index:
			e.writes = true
		}
		for _, x := range ast.ExprsOf(s) {
			visit(x)
		}
	})
	visit(ret)
	return e
}

// summary is a method's effect folded over its callees.
type summary struct {
	// split: the method makes a constructor or remote call, or calls a
	// method that splits, so it cannot run to completion in its operator.
	split bool
	// writes: the method writes state or constructs an entity, or calls a
	// method that writes. The StateFlow runtime serves a read-only simple
	// method outside the epochs, so the rule must be sound.
	writes bool
}

// summarise returns the summary of every method, keyed by qualified name.
func summarise(info *types.Info) map[string]summary {
	sums := map[string]summary{}
	var visit func(m *types.Method) summary
	visit = func(m *types.Method) summary {
		if s, ok := sums[m.QName()]; ok {
			return s
		}
		e := classify(info, m.Def.Body, nil)
		s := summary{writes: e.writes}
		for _, c := range e.calls {
			if c.Ctor {
				s.split, s.writes = true, true
				continue
			}
			callee := visit(info.Classes[c.Class].Methods[c.Method])
			s.split = s.split || c.Remote || callee.split
			s.writes = s.writes || callee.writes
		}
		sums[m.QName()] = s
		return s
	}
	for _, cn := range info.Order {
		cls := info.Classes[cn]
		for _, mn := range cls.MethodOrder {
			visit(cls.Methods[mn])
		}
	}
	return sums
}

// markSplitBits stamps the bits that need every class split, callee first.
// A continuation (an Invoke's resume block) is StateFree when it returns,
// mentions no self and writes nothing: it needs only its frame, so a
// runtime runs it where the awaited call returns. A method is RefClosed
// when it is simple, or when every Invoke it makes has a RefClosed callee
// and a receiver and entity-typed arguments that are each self or an
// entity parameter never reassigned (nested assignments, loop variables
// and Invoke results count); a constructor Invoke has no receiver, so it
// never is. A sharded router reads a RefClosed call's footprint off its
// request.
func markSplitBits(info *types.Info, prog *ir.Program) {
	done := map[*ir.Method]bool{}
	var visit func(m *ir.Method) bool
	visit = func(m *ir.Method) bool {
		if done[m] {
			return m.RefClosed
		}
		done[m] = true
		if m.Simple {
			m.RefClosed = true
			return true
		}
		effs := make([]effect, len(m.Blocks))
		reassigned := map[string]bool{}
		for i, b := range m.Blocks {
			ret, _ := b.Term.(ir.Return)
			effs[i] = classify(info, b.Stmts, ret.Value)
			for _, v := range effs[i].assigns {
				reassigned[v] = true
			}
			if inv, ok := b.Term.(ir.Invoke); ok && inv.AssignTo != "" {
				reassigned[inv.AssignTo] = true
			}
		}
		entity := map[string]bool{}
		for _, p := range m.Params {
			entity[p.Name] = p.Type.Entity
		}
		clean := func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.SelfRef:
				return true
			case *ast.Name:
				return entity[x.Ident] && !reassigned[x.Ident]
			}
			return false
		}
		closed := true
		for _, b := range m.Blocks {
			inv, ok := b.Term.(ir.Invoke)
			if !ok {
				continue
			}
			_, ret := m.Blocks[inv.To].Term.(ir.Return)
			m.Blocks[inv.To].StateFree = ret && !effs[inv.To].self && !effs[inv.To].writes
			callee := prog.MethodOf(inv.Class, inv.Method)
			closed = closed && clean(inv.Recv) && visit(callee)
			for i, a := range inv.Args {
				closed = closed && (!callee.Params[i].Type.Entity || clean(a))
			}
		}
		m.RefClosed = closed
		return closed
	}
	for _, op := range prog.Operators {
		for _, m := range op.Methods {
			visit(m)
		}
	}
}

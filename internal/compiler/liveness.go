// Def/use and live-variable analysis over split blocks. The paper (§2.4)
// derives each split function's parameters from the variables it references
// and its returns from the variables it defines; we additionally compute
// live-out sets with a fixpoint over the block CFG so runtimes can prune
// the execution context carried inside events to exactly the variables
// later blocks still need.
package compiler

import (
	"sort"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
)

// exprUses collects variable names read by an expression.
func exprUses(e ast.Expr, out map[string]bool) {
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if n, ok := x.(*ast.Name); ok {
			out[n.Ident] = true
		}
		return true
	})
}

// stmtDefUse computes, at statement granularity, the variables a statement
// reads before writing (use) and the variables it writes (def). Nested
// inline control flow is handled conservatively: all reads anywhere count
// as uses, all writes as defs.
func stmtDefUse(s ast.Stmt, use, def map[string]bool) {
	markUse := func(e ast.Expr) {
		tmp := map[string]bool{}
		exprUses(e, tmp)
		for v := range tmp {
			if !def[v] {
				use[v] = true
			}
		}
	}
	switch x := s.(type) {
	case *ast.AssignStmt:
		markUse(x.Value)
		switch t := x.Target.(type) {
		case *ast.Name:
			def[t.Ident] = true
		case *ast.Index:
			markUse(t.Recv)
			markUse(t.Idx)
		case *ast.Attr:
			// self attribute: not a local variable.
		}
	case *ast.AugAssignStmt:
		markUse(x.Value)
		if t, ok := x.Target.(*ast.Name); ok {
			// Read-modify-write: the target is both used and defined.
			if !def[t.Ident] {
				use[t.Ident] = true
			}
			def[t.Ident] = true
		}
	case *ast.ExprStmt:
		markUse(x.Value)
	case *ast.ReturnStmt:
		if x.Value != nil {
			markUse(x.Value)
		}
	case *ast.IfStmt:
		markUse(x.Cond)
		// Conservative: branch defs may not happen, so nested reads are
		// uses, nested writes are (optimistic) defs only for carrying
		// purposes; to stay safe for liveness we record nested writes as
		// defs only if they occur in straight-line position. Simplest
		// sound choice: count nested reads as uses, ignore nested defs.
		nestedUses([]ast.Stmt{s}, use, def)
	case *ast.ForStmt:
		markUse(x.Iterable)
		def[x.Var] = true
		nestedUses(x.Body, use, def)
	case *ast.WhileStmt:
		markUse(x.Cond)
		nestedUses(x.Body, use, def)
	case *ast.PassStmt, *ast.BreakStmt, *ast.ContinueStmt:
	}
}

// nestedUses records every variable read anywhere under stmts as a use
// (unless already defined) without recording nested writes as defs. This
// over-approximates use and under-approximates def, which is the sound
// direction for liveness.
func nestedUses(stmts []ast.Stmt, use, def map[string]bool) {
	ast.WalkStmts(stmts, func(st ast.Stmt) {
		switch x := st.(type) {
		case *ast.AssignStmt:
			collectReads(x.Value, use, def)
			if t, ok := x.Target.(*ast.Index); ok {
				collectReads(t.Recv, use, def)
				collectReads(t.Idx, use, def)
			}
		case *ast.AugAssignStmt:
			collectReads(x.Value, use, def)
			if t, ok := x.Target.(*ast.Name); ok && !def[t.Ident] {
				use[t.Ident] = true
			}
		case *ast.ExprStmt:
			collectReads(x.Value, use, def)
		case *ast.ReturnStmt:
			if x.Value != nil {
				collectReads(x.Value, use, def)
			}
		case *ast.IfStmt:
			collectReads(x.Cond, use, def)
		case *ast.ForStmt:
			collectReads(x.Iterable, use, def)
		case *ast.WhileStmt:
			collectReads(x.Cond, use, def)
		}
	})
}

func collectReads(e ast.Expr, use, def map[string]bool) {
	tmp := map[string]bool{}
	exprUses(e, tmp)
	for v := range tmp {
		if !def[v] {
			use[v] = true
		}
	}
}

// blockDefUse computes the use/def sets of a block including its
// terminator. The AssignTo of an Invoke terminator is a def of the
// *successor* block, returned separately.
func blockDefUse(b *ir.Block) (use, def map[string]bool, succDef string) {
	use = map[string]bool{}
	def = map[string]bool{}
	for _, s := range b.Stmts {
		stmtDefUse(s, use, def)
	}
	markUse := func(e ast.Expr) {
		if e == nil {
			return
		}
		tmp := map[string]bool{}
		exprUses(e, tmp)
		for v := range tmp {
			if !def[v] {
				use[v] = true
			}
		}
	}
	switch t := b.Term.(type) {
	case ir.Return:
		markUse(t.Value)
	case ir.Branch:
		markUse(t.Cond)
	case ir.Invoke:
		markUse(t.Recv)
		for _, a := range t.Args {
			markUse(a)
		}
		succDef = t.AssignTo
	}
	return use, def, succDef
}

// computeDefUse fills Params, Defines and LiveOut on every block via a
// backwards fixpoint over the CFG (loops require iteration to converge).
func computeDefUse(blocks []*ir.Block) {
	n := len(blocks)
	uses := make([]map[string]bool, n)
	defs := make([]map[string]bool, n)
	entryDef := make([]map[string]bool, n) // vars defined on entry (Invoke AssignTo)
	for i := range blocks {
		entryDef[i] = map[string]bool{}
	}
	for i, b := range blocks {
		u, d, succ := blockDefUse(b)
		uses[i], defs[i] = u, d
		if inv, ok := b.Term.(ir.Invoke); ok && succ != "" {
			entryDef[inv.To][succ] = true
		}
	}
	liveIn := make([]map[string]bool, n)
	liveOut := make([]map[string]bool, n)
	for i := range blocks {
		liveIn[i] = map[string]bool{}
		liveOut[i] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := blocks[i]
			out := map[string]bool{}
			for _, s := range b.Term.Successors() {
				for v := range liveIn[s] {
					// A variable defined on entry to the successor (the
					// invoke result) is not live across the edge.
					if entryDef[s][v] {
						continue
					}
					out[v] = true
				}
			}
			in := map[string]bool{}
			for v := range uses[i] {
				in[v] = true
			}
			for v := range out {
				if !defs[i][v] && !entryDef[i][v] {
					in[v] = true
				}
			}
			if !sameSet(out, liveOut[i]) || !sameSet(in, liveIn[i]) {
				changed = true
				liveOut[i], liveIn[i] = out, in
			}
		}
	}
	for i, b := range blocks {
		b.Params = sortedKeys(uses[i])
		d := map[string]bool{}
		for v := range defs[i] {
			d[v] = true
		}
		for v := range entryDef[i] {
			d[v] = true
		}
		b.Defines = sortedKeys(d)
		b.LiveOut = sortedKeys(liveOut[i])
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

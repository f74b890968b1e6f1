// Function splitting (§2.4): the continuation-passing-style transformation
// that turns an imperative method into a chain of split functions. The
// splitter walks a method's statement list, hoists remote calls out of
// expressions into dedicated Invoke terminators, and cuts the statement
// list at every remote call and at every control-flow structure that
// contains one. Control flow with no remote calls stays inline and is
// executed locally by the interpreter. A continuation that reads no entity
// state is marked StateFree (effects.go): it is a tail of the call it
// waited on, and the runtime runs it where that call returns.
package compiler

import (
	"fmt"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/token"
	"statefulentities.dev/stateflow/internal/lang/types"
)

// Error is a compilation error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: compile error: %s", e.Pos, e.Msg) }

type loopCtx struct {
	head ir.BlockID // continue target
	exit ir.BlockID // break target
}

type splitter struct {
	info   *types.Info
	sums   map[string]summary // qualified method name -> effect summary
	method *types.Method
	blocks []*ir.Block
	cur    *ir.Block
	tmpN   int
	loops  []loopCtx
	err    error
}

func (s *splitter) fail(pos token.Pos, format string, args ...any) {
	if s.err == nil {
		s.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (s *splitter) newBlock() *ir.Block {
	b := &ir.Block{
		ID:   ir.BlockID(len(s.blocks)),
		Name: fmt.Sprintf("%s_%d", s.method.Name, len(s.blocks)),
	}
	s.blocks = append(s.blocks, b)
	return b
}

func (s *splitter) newTmp() string {
	s.tmpN++
	return fmt.Sprintf("__t%d", s.tmpN)
}

// isSplitCall reports whether the given original call expression must leave
// the operator: remote method calls, constructor calls (the new entity
// lives on its own partition), and self-calls to methods that themselves
// need splitting.
func (s *splitter) isSplitCall(call *ast.Call) bool {
	tgt, ok := s.info.Calls[call]
	if !ok {
		return false // builtin or container method
	}
	if tgt.Ctor {
		return true
	}
	if tgt.Remote {
		return true
	}
	return s.sums[tgt.Class+"."+tgt.Method].split
}

// containsSplitCall reports whether the expression tree contains a call
// that must be hoisted.
func (s *splitter) containsSplitCall(e ast.Expr) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if call, ok := x.(*ast.Call); ok && s.isSplitCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// stmtHasSplitCall reports whether a statement (recursively) contains a
// split call.
func (s *splitter) stmtHasSplitCall(stmt ast.Stmt) bool {
	found := false
	ast.WalkStmts([]ast.Stmt{stmt}, func(st ast.Stmt) {
		for _, e := range ast.ExprsOf(st) {
			if s.containsSplitCall(e) {
				found = true
			}
		}
	})
	return found
}

// containsLoopEscape reports whether the statement list contains a break or
// continue that binds to the *enclosing* loop (i.e. not nested inside a
// further loop within the list).
func containsLoopEscape(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		switch x := st.(type) {
		case *ast.BreakStmt, *ast.ContinueStmt:
			return true
		case *ast.IfStmt:
			if containsLoopEscape(x.Then) || containsLoopEscape(x.Else) {
				return true
			}
		case *ast.ForStmt, *ast.WhileStmt:
			// break/continue inside bind to the inner loop.
		}
	}
	return false
}

// hoist rewrites an expression, extracting every split call into an Invoke
// terminator (innermost first, left-to-right, matching Python evaluation
// order) and replacing it with the temporary variable that receives the
// call's return value. The original AST is never mutated: rewritten paths
// are copied.
func (s *splitter) hoist(e ast.Expr) ast.Expr {
	if e == nil || s.err != nil {
		return e
	}
	switch x := e.(type) {
	case *ast.Name, *ast.SelfRef, *ast.IntLit, *ast.FloatLit, *ast.StrLit,
		*ast.BoolLit, *ast.NoneLit:
		return e
	case *ast.Attr:
		recv := s.hoist(x.Recv)
		if recv == x.Recv {
			return e
		}
		return &ast.Attr{Position: x.Position, Recv: recv, Field: x.Field}
	case *ast.ListLit:
		elems, changed := s.hoistAll(x.Elems)
		if !changed {
			return e
		}
		return &ast.ListLit{Position: x.Position, Elems: elems}
	case *ast.DictLit:
		keys, ck := s.hoistAll(x.Keys)
		vals, cv := s.hoistAll(x.Values)
		if !ck && !cv {
			return e
		}
		return &ast.DictLit{Position: x.Position, Keys: keys, Values: vals}
	case *ast.UnaryOp:
		op := s.hoist(x.Operand)
		if op == x.Operand {
			return e
		}
		return &ast.UnaryOp{Position: x.Position, Op: x.Op, Operand: op}
	case *ast.BinOp:
		if (x.Op == token.KwAnd || x.Op == token.KwOr) && s.containsSplitCall(x.Right) {
			s.fail(x.Pos(), "remote call in the right operand of %s would be evaluated eagerly; rewrite using an explicit if-statement", x.Op)
			return e
		}
		l := s.hoist(x.Left)
		r := s.hoist(x.Right)
		if l == x.Left && r == x.Right {
			return e
		}
		return &ast.BinOp{Position: x.Position, Op: x.Op, Left: l, Right: r}
	case *ast.Index:
		recv := s.hoist(x.Recv)
		idx := s.hoist(x.Idx)
		if recv == x.Recv && idx == x.Idx {
			return e
		}
		return &ast.Index{Position: x.Position, Recv: recv, Idx: idx}
	case *ast.Call:
		var recv ast.Expr
		if x.Recv != nil {
			recv = s.hoist(x.Recv)
		}
		args, changedArgs := s.hoistAll(x.Args)
		if !s.isSplitCall(x) {
			if recv == x.Recv && !changedArgs {
				return e
			}
			c := *x // keeps the call's stamp
			c.Recv, c.Args = recv, args
			return &c
		}
		// Split call: cut the block here (§2.4). The current block ends by
		// sending the invocation event; execution resumes in a fresh block
		// once the return value arrives.
		tgt := s.info.Calls[x]
		tmp := s.newTmp()
		s.emitInvoke(recv, tgt, x.Func, args, tmp)
		return &ast.Name{Position: x.Position, Ident: tmp}
	default:
		s.fail(e.Pos(), "unsupported expression %T in split", e)
		return e
	}
}

func (s *splitter) hoistAll(exprs []ast.Expr) ([]ast.Expr, bool) {
	changed := false
	out := make([]ast.Expr, len(exprs))
	for i, e := range exprs {
		out[i] = s.hoist(e)
		if out[i] != e {
			changed = true
		}
	}
	if !changed {
		return exprs, false
	}
	return out, true
}

// emitInvoke terminates the current block with an Invoke and starts the
// continuation block.
func (s *splitter) emitInvoke(recv ast.Expr, tgt types.CallTarget, method string, args []ast.Expr, assignTo string) {
	next := s.newBlock()
	if tgt.Ctor {
		recv = nil
		method = "__init__"
	}
	s.cur.Term = ir.Invoke{
		Recv:     recv,
		Class:    tgt.Class,
		Method:   method,
		Args:     args,
		AssignTo: assignTo,
		To:       next.ID,
	}
	s.cur = next
}

// compileStmts compiles a statement list into the current block chain.
// It returns true if the compiled code always terminates (returns) so the
// caller can skip emitting dead continuations.
func (s *splitter) compileStmts(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if s.err != nil {
			return true
		}
		if s.compileStmt(st) {
			return true
		}
	}
	return false
}

// inSplitLoop reports whether we are compiling inside a split loop body.
func (s *splitter) inSplitLoop() bool { return len(s.loops) > 0 }

func (s *splitter) compileStmt(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt:
		var v ast.Expr
		if x.Value != nil {
			v = s.hoist(x.Value)
		}
		s.cur.Term = ir.Return{Value: v}
		// Any trailing statements are dead; switch to a fresh unreachable
		// block so stray code cannot corrupt the terminator.
		s.cur = s.newBlockUnreachable()
		return true
	case *ast.BreakStmt:
		if !s.inSplitLoop() {
			s.fail(x.Pos(), "break outside loop")
			return true
		}
		s.cur.Term = ir.Jump{To: s.loops[len(s.loops)-1].exit}
		s.cur = s.newBlockUnreachable()
		return true
	case *ast.ContinueStmt:
		if !s.inSplitLoop() {
			s.fail(x.Pos(), "continue outside loop")
			return true
		}
		s.cur.Term = ir.Jump{To: s.loops[len(s.loops)-1].head}
		s.cur = s.newBlockUnreachable()
		return true
	case *ast.IfStmt:
		if s.stmtHasSplitCall(x) || (s.inSplitLoop() && (containsLoopEscape(x.Then) || containsLoopEscape(x.Else))) {
			return s.compileSplitIf(x)
		}
	case *ast.ForStmt:
		if s.stmtHasSplitCall(x) {
			s.compileSplitFor(x)
			return false
		}
	case *ast.WhileStmt:
		if s.stmtHasSplitCall(x) {
			s.compileSplitWhile(x)
			return false
		}
	case *ast.AssignStmt:
		if s.containsSplitCall(x.Value) || s.containsSplitCall(x.Target) {
			// Special-case the common `x = remote_call(...)` shape to bind
			// the call result directly, avoiding a temporary.
			if call, ok := x.Value.(*ast.Call); ok && s.isSplitCall(call) {
				if name, isName := x.Target.(*ast.Name); isName {
					var recv ast.Expr
					if call.Recv != nil {
						recv = s.hoist(call.Recv)
					}
					args, _ := s.hoistAll(call.Args)
					s.emitInvoke(recv, s.info.Calls[call], call.Func, args, name.Ident)
					return false
				}
			}
			target := s.hoist(x.Target)
			value := s.hoist(x.Value)
			s.cur.Stmts = append(s.cur.Stmts, &ast.AssignStmt{
				Position: x.Position, Target: target, Type: x.Type, Value: value,
			})
			return false
		}
	case *ast.AugAssignStmt:
		if s.containsSplitCall(x.Value) {
			value := s.hoist(x.Value)
			s.cur.Stmts = append(s.cur.Stmts, &ast.AugAssignStmt{
				Position: x.Position, Target: x.Target, Op: x.Op, Value: value,
			})
			return false
		}
	case *ast.ExprStmt:
		if s.containsSplitCall(x.Value) {
			// Evaluate for effect; the hoisted temporary is discarded.
			if call, ok := x.Value.(*ast.Call); ok && s.isSplitCall(call) {
				var recv ast.Expr
				if call.Recv != nil {
					recv = s.hoist(call.Recv)
				}
				args, _ := s.hoistAll(call.Args)
				s.emitInvoke(recv, s.info.Calls[call], call.Func, args, "")
				return false
			}
			v := s.hoist(x.Value)
			s.cur.Stmts = append(s.cur.Stmts, &ast.ExprStmt{Position: x.Position, Value: v})
			return false
		}
	}
	// No split call anywhere inside: keep the statement inline.
	s.cur.Stmts = append(s.cur.Stmts, st)
	return false
}

// newBlockUnreachable starts a fresh block for statements that follow an
// unconditional transfer; it is pruned later if it stays empty.
func (s *splitter) newBlockUnreachable() *ir.Block { return s.newBlock() }

// compileSplitIf splits an if-statement into condition, true-path and
// false-path definitions (§2.4 "Control Flow"), recursing into both paths.
func (s *splitter) compileSplitIf(x *ast.IfStmt) bool {
	cond := s.hoist(x.Cond) // condition evaluated (with hoisted calls) in the current chain
	condBlock := s.cur
	thenEntry := s.newBlock()

	s.cur = thenEntry
	thenTerm := s.compileStmts(x.Then)
	thenExit := s.cur

	var elseEntry *ir.Block
	var elseTerm bool
	var elseExit *ir.Block
	if len(x.Else) > 0 {
		elseEntry = s.newBlock()
		s.cur = elseEntry
		elseTerm = s.compileStmts(x.Else)
		elseExit = s.cur
	}

	merge := s.newBlock()
	if elseEntry == nil {
		condBlock.Term = ir.Branch{Cond: cond, True: thenEntry.ID, False: merge.ID}
	} else {
		condBlock.Term = ir.Branch{Cond: cond, True: thenEntry.ID, False: elseEntry.ID}
		if !elseTerm && elseExit.Term == nil {
			elseExit.Term = ir.Jump{To: merge.ID}
		}
	}
	if !thenTerm && thenExit.Term == nil {
		thenExit.Term = ir.Jump{To: merge.ID}
	}
	s.cur = merge
	return false
}

// compileSplitWhile splits a while-loop into a loop-head (condition) block,
// body blocks and an after-loop block (§2.4). A condition containing
// remote calls is desugared into `while True: c = cond; if not c: break`.
func (s *splitter) compileSplitWhile(x *ast.WhileStmt) {
	if s.containsSplitCall(x.Cond) {
		tmp := s.newTmp()
		desugared := &ast.WhileStmt{
			Position: x.Position,
			Cond:     &ast.BoolLit{Position: x.Position, Value: true},
			Body: append([]ast.Stmt{
				&ast.AssignStmt{Position: x.Position,
					Target: &ast.Name{Position: x.Position, Ident: tmp},
					Value:  x.Cond},
				&ast.IfStmt{Position: x.Position,
					Cond: &ast.UnaryOp{Position: x.Position, Op: token.KwNot,
						Operand: &ast.Name{Position: x.Position, Ident: tmp}},
					Then: []ast.Stmt{&ast.BreakStmt{Position: x.Position}}},
			}, x.Body...),
		}
		s.compileSplitWhile(desugared)
		return
	}
	head := s.newBlock()
	if s.cur.Term == nil {
		s.cur.Term = ir.Jump{To: head.ID}
	}
	bodyEntry := s.newBlock()
	exit := s.newBlock()
	head.Term = ir.Branch{Cond: x.Cond, True: bodyEntry.ID, False: exit.ID}

	s.loops = append(s.loops, loopCtx{head: head.ID, exit: exit.ID})
	s.cur = bodyEntry
	terminated := s.compileStmts(x.Body)
	if !terminated && s.cur.Term == nil {
		s.cur.Term = ir.Jump{To: head.ID}
	}
	s.loops = s.loops[:len(s.loops)-1]
	s.cur = exit
}

// compileSplitFor desugars `for v in iterable` into an index-driven while
// over a hidden iterator variable, keeping track of the current iteration
// in the execution state (§2.5 "we keep track of the current iteration for
// loop control structures").
func (s *splitter) compileSplitFor(x *ast.ForStmt) {
	iterVar := s.newTmp() + "_iter"
	idxVar := s.newTmp() + "_idx"
	pos := x.Position
	name := func(n string) *ast.Name { return &ast.Name{Position: pos, Ident: n} }

	// __iter = <iterable>; __idx = 0  (iterable may itself contain calls)
	iterable := s.hoist(x.Iterable)
	s.cur.Stmts = append(s.cur.Stmts,
		&ast.AssignStmt{Position: pos, Target: name(iterVar), Value: iterable},
		&ast.AssignStmt{Position: pos, Target: name(idxVar), Value: &ast.IntLit{Position: pos}},
	)
	// while __idx < len(__iter): v = __iter[__idx]; __idx = __idx + 1; body
	loop := &ast.WhileStmt{
		Position: pos,
		Cond: &ast.BinOp{Position: pos, Op: token.LT, Left: name(idxVar),
			Right: &ast.Call{Position: pos, Func: "len", Builtin: types.FnLen + 1, Args: []ast.Expr{name(iterVar)}}},
		Body: append([]ast.Stmt{
			&ast.AssignStmt{Position: pos, Target: name(x.Var),
				Value: &ast.Index{Position: pos, Recv: name(iterVar), Idx: name(idxVar)}},
			&ast.AssignStmt{Position: pos, Target: name(idxVar),
				Value: &ast.BinOp{Position: pos, Op: token.PLUS, Left: name(idxVar),
					Right: &ast.IntLit{Position: pos, Value: 1}}},
		}, x.Body...),
	}
	s.compileSplitWhile(loop)
}

// splitMethod runs the splitter over one method and returns its blocks.
func splitMethod(info *types.Info, sums map[string]summary, m *types.Method) ([]*ir.Block, error) {
	s := &splitter{info: info, sums: sums, method: m}
	entry := s.newBlock()
	s.cur = entry
	terminated := s.compileStmts(m.Def.Body)
	if !terminated && s.cur.Term == nil {
		s.cur.Term = ir.Return{} // fall off the end -> return None
	}
	// Give every block a terminator (unreachable tails return None).
	for _, b := range s.blocks {
		if b.Term == nil {
			b.Term = ir.Return{}
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	blocks := pruneUnreachable(s.blocks)
	computeDefUse(blocks)
	return blocks, nil
}

// pruneUnreachable removes blocks not reachable from the entry and
// renumbers the survivors, fixing terminator targets.
func pruneUnreachable(blocks []*ir.Block) []*ir.Block {
	reach := map[ir.BlockID]bool{}
	var stack []ir.BlockID
	stack = append(stack, 0)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		for _, s := range blocks[id].Term.Successors() {
			stack = append(stack, s)
		}
	}
	remap := map[ir.BlockID]ir.BlockID{}
	var out []*ir.Block
	for _, b := range blocks {
		if reach[b.ID] {
			remap[b.ID] = ir.BlockID(len(out))
			out = append(out, b)
		}
	}
	for i, b := range out {
		b.ID = ir.BlockID(i)
		switch t := b.Term.(type) {
		case ir.Jump:
			b.Term = ir.Jump{To: remap[t.To]}
		case ir.Branch:
			b.Term = ir.Branch{Cond: t.Cond, True: remap[t.True], False: remap[t.False]}
		case ir.Invoke:
			t.To = remap[t.To]
			b.Term = t
		}
	}
	// Rename to keep names dense.
	for _, b := range out {
		if idx := lastUnderscore(b.Name); idx >= 0 {
			b.Name = fmt.Sprintf("%s_%d", b.Name[:idx], b.ID)
		}
	}
	return out
}

func lastUnderscore(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '_' {
			return i
		}
	}
	return -1
}

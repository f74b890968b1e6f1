// The block interpreter: executes the straight-line statements of a split
// block (plus any inline control flow) against an entity's state and a
// variable environment. Remote calls never reach the interpreter — the
// splitter hoists them into Invoke terminators — so execution here is
// always local, synchronous and side-effect-free beyond the entity state.
package interp

import (
	"fmt"
	"strings"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/token"
	"statefulentities.dev/stateflow/internal/lang/types"
)

// State is the attribute store of one entity instance, addressed by the
// 0-based class-layout slots the compiler stamps on every self attribute.
// Runtimes provide implementations that track reads and writes (for
// transaction reservation sets and for cost accounting).
type State interface {
	// GetSlot reads the attribute in a slot.
	GetSlot(slot int) (Value, bool)
	// SetSlot writes the attribute in a slot.
	SetSlot(slot int, v Value)
}

// MapState is an entity's attributes keyed by name: the form in which
// state enters (preloading) and leaves (assertions, queries) a runtime.
type MapState map[string]Value

// RuntimeError is a DSL-level execution error.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
}

// Interp executes entity code of one compiled program. The compiler stamps
// a 1-based layout slot on every variable and self attribute, and the
// interpreter addresses frames and states by it alone.
type Interp struct {
	Prog *ir.Program
}

// New returns an interpreter over a compiled program.
func New(prog *ir.Program) *Interp { return &Interp{Prog: prog} }

// Result is the outcome of executing a block's statement list.
type Result struct {
	Returned bool  // a return statement executed
	Value    Value // the returned value (None when Returned is false)
}

// frame is what an activation's code evaluates against besides its
// variables and its entity's state: which entity self is, and how deep the
// inline self-calls go. The variables (env) and the state (st) are
// parameters of their own on every evaluation function, not fields here:
// escape analysis does not tell a struct's fields apart, so a state write
// (an interface call) or a self reference that leaks the frame would leak
// env with it, and a caller could never keep a frame on its stack.
type frame struct {
	class string
	key   string
	depth int
}

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

const maxCallDepth = 64

// ExecBlock runs a block's statements. The frame is mutated in place.
func (in *Interp) ExecBlock(class, key string, b *ir.Block, env *Frame, st State) (Result, error) {
	fr := frame{class: class, key: key}
	c, v, err := in.execStmts(b.Stmts, &fr, env, st)
	if err != nil {
		return Result{}, err
	}
	switch c {
	case ctrlReturn:
		return Result{Returned: true, Value: v}, nil
	case ctrlBreak, ctrlContinue:
		return Result{}, &RuntimeError{Msg: "break/continue escaped block (compiler bug)"}
	}
	return Result{}, nil
}

// Eval evaluates a single expression in the given context; used by operator
// logic to evaluate terminator conditions, invoke arguments and return
// values.
func (in *Interp) Eval(class, key string, e ast.Expr, env *Frame, st State) (Value, error) {
	if e == nil {
		return None, nil
	}
	fr := frame{class: class, key: key}
	return in.eval(e, &fr, env, st)
}

// ExecInit runs __init__ against a fresh state laid out for the class.
func (in *Interp) ExecInit(class string, args []Value, st State) error {
	op := in.Prog.Operator(class)
	if op == nil {
		return &RuntimeError{Msg: fmt.Sprintf("unknown class %s", class)}
	}
	m := op.Method("__init__")
	var buf [StackSlots]Value
	env, err := FrameIn(m, args, SlotsIn(buf[:], m))
	if err != nil {
		return err
	}
	fr := frame{class: class}
	_, _, err = in.execStmts(m.Body, &fr, &env, st)
	return err
}

// ---------------------------------------------------------------------------
// Statements

func (in *Interp) execStmts(stmts []ast.Stmt, fr *frame, env *Frame, st State) (ctrl, Value, error) {
	for _, s := range stmts {
		c, v, err := in.execStmt(s, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		if c != ctrlNone {
			return c, v, nil
		}
	}
	return ctrlNone, None, nil
}

func (in *Interp) execStmt(s ast.Stmt, fr *frame, env *Frame, st State) (ctrl, Value, error) {
	switch x := s.(type) {
	case *ast.PassStmt:
		return ctrlNone, None, nil
	case *ast.BreakStmt:
		return ctrlBreak, None, nil
	case *ast.ContinueStmt:
		return ctrlContinue, None, nil
	case *ast.ReturnStmt:
		if x.Value == nil {
			return ctrlReturn, None, nil
		}
		v, err := in.eval(x.Value, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		return ctrlReturn, v, nil
	case *ast.ExprStmt:
		_, err := in.eval(x.Value, fr, env, st)
		return ctrlNone, None, err
	case *ast.AssignStmt:
		v, err := in.eval(x.Value, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		return ctrlNone, None, in.assign(x.Target, v, fr, env, st)
	case *ast.AugAssignStmt:
		cur, err := in.eval(x.Target, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		rhs, err := in.eval(x.Value, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		nv, err := binop(x.Op, cur, rhs, x.Pos())
		if err != nil {
			return ctrlNone, None, err
		}
		return ctrlNone, None, in.assign(x.Target, nv, fr, env, st)
	case *ast.IfStmt:
		cond, err := in.eval(x.Cond, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		if cond.IsTruthy() {
			return in.execStmts(x.Then, fr, env, st)
		}
		return in.execStmts(x.Else, fr, env, st)
	case *ast.WhileStmt:
		for i := 0; ; i++ {
			if i > 10_000_000 {
				return ctrlNone, None, &RuntimeError{Pos: x.Pos(), Msg: "while loop exceeded iteration bound"}
			}
			cond, err := in.eval(x.Cond, fr, env, st)
			if err != nil {
				return ctrlNone, None, err
			}
			if !cond.IsTruthy() {
				return ctrlNone, None, nil
			}
			c, v, err := in.execStmts(x.Body, fr, env, st)
			if err != nil {
				return ctrlNone, None, err
			}
			switch c {
			case ctrlReturn:
				return ctrlReturn, v, nil
			case ctrlBreak:
				return ctrlNone, None, nil
			}
		}
	case *ast.ForStmt:
		iter, err := in.eval(x.Iterable, fr, env, st)
		if err != nil {
			return ctrlNone, None, err
		}
		if iter.Kind != KList {
			return ctrlNone, None, &RuntimeError{Pos: x.Pos(), Msg: "for requires a list"}
		}
		for _, elem := range iter.L.Elems {
			env.SetSlot(x.VarSlot-1, elem)
			c, v, err := in.execStmts(x.Body, fr, env, st)
			if err != nil {
				return ctrlNone, None, err
			}
			switch c {
			case ctrlReturn:
				return ctrlReturn, v, nil
			case ctrlBreak:
				return ctrlNone, None, nil
			}
		}
		return ctrlNone, None, nil
	default:
		return ctrlNone, None, &RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unsupported statement %T", s)}
	}
}

func (in *Interp) assign(target ast.Expr, v Value, fr *frame, env *Frame, st State) error {
	switch t := target.(type) {
	case *ast.Name:
		env.SetSlot(t.Slot-1, v)
		return nil
	case *ast.Attr:
		if _, isSelf := t.Recv.(*ast.SelfRef); !isSelf {
			return &RuntimeError{Pos: t.Pos(), Msg: "can only assign self attributes"}
		}
		st.SetSlot(t.Slot-1, v)
		return nil
	case *ast.Index:
		recv, err := in.eval(t.Recv, fr, env, st)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, fr, env, st)
		if err != nil {
			return err
		}
		switch recv.Kind {
		case KList:
			if idx.Kind != KInt {
				return &RuntimeError{Pos: t.Pos(), Msg: "list index must be int"}
			}
			i, ok := at(len(recv.L.Elems), idx.I)
			if !ok {
				return &RuntimeError{Pos: t.Pos(), Msg: "list index out of range"}
			}
			recv.L.Elems[i] = v
		case KDict:
			if err := recv.DictSet(idx, v); err != nil {
				return &RuntimeError{Pos: t.Pos(), Msg: err.Error()}
			}
		default:
			return &RuntimeError{Pos: t.Pos(), Msg: fmt.Sprintf("cannot index-assign %s", recv.Kind)}
		}
		// Container mutation through a state attribute must mark the
		// attribute dirty so write-tracking state backends observe it.
		in.touchStateAttr(t.Recv, recv, st)
		return nil
	default:
		return &RuntimeError{Pos: target.Pos(), Msg: "invalid assignment target"}
	}
}

// touchStateAttr re-stores a container attribute after in-place mutation.
func (in *Interp) touchStateAttr(recvExpr ast.Expr, v Value, st State) {
	if attr, ok := recvExpr.(*ast.Attr); ok {
		if _, isSelf := attr.Recv.(*ast.SelfRef); isSelf {
			st.SetSlot(attr.Slot-1, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (in *Interp) eval(e ast.Expr, fr *frame, env *Frame, st State) (Value, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return IntV(x.Value), nil
	case *ast.FloatLit:
		return FloatV(x.Value), nil
	case *ast.StrLit:
		return StrV(x.Value), nil
	case *ast.BoolLit:
		return BoolV(x.Value), nil
	case *ast.NoneLit:
		return None, nil
	case *ast.SelfRef:
		return RefV(fr.class, fr.key), nil
	case *ast.Name:
		if v, ok := env.GetSlot(x.Slot - 1); ok {
			return v, nil
		}
		return None, &RuntimeError{Pos: x.Pos(), Msg: fmt.Sprintf("undefined variable %s", x.Ident)}
	case *ast.Attr:
		if _, isSelf := x.Recv.(*ast.SelfRef); isSelf {
			if v, ok := st.GetSlot(x.Slot - 1); ok {
				return v, nil
			}
			return None, &RuntimeError{Pos: x.Pos(), Msg: fmt.Sprintf("entity has no attribute %s", x.Field)}
		}
		return None, &RuntimeError{Pos: x.Pos(), Msg: "attribute access on non-self value"}
	case *ast.ListLit:
		elems := make([]Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := in.eval(el, fr, env, st)
			if err != nil {
				return None, err
			}
			elems[i] = v
		}
		return ListV(elems...), nil
	case *ast.DictLit:
		d := DictV()
		for i := range x.Keys {
			k, err := in.eval(x.Keys[i], fr, env, st)
			if err != nil {
				return None, err
			}
			v, err := in.eval(x.Values[i], fr, env, st)
			if err != nil {
				return None, err
			}
			if err := d.DictSet(k, v); err != nil {
				return None, &RuntimeError{Pos: x.Pos(), Msg: err.Error()}
			}
		}
		return d, nil
	case *ast.UnaryOp:
		v, err := in.eval(x.Operand, fr, env, st)
		if err != nil {
			return None, err
		}
		switch x.Op {
		case token.KwNot:
			return BoolV(!v.IsTruthy()), nil
		case token.MINUS:
			switch v.Kind {
			case KInt:
				return IntV(-v.I), nil
			case KFloat:
				return FloatV(-v.Float()), nil
			}
			return None, &RuntimeError{Pos: x.Pos(), Msg: "unary minus on non-number"}
		}
		return None, &RuntimeError{Pos: x.Pos(), Msg: "unknown unary operator"}
	case *ast.BinOp:
		// Short-circuit evaluation for and/or.
		if x.Op == token.KwAnd || x.Op == token.KwOr {
			l, err := in.eval(x.Left, fr, env, st)
			if err != nil {
				return None, err
			}
			if x.Op == token.KwAnd && !l.IsTruthy() {
				return l, nil
			}
			if x.Op == token.KwOr && l.IsTruthy() {
				return l, nil
			}
			return in.eval(x.Right, fr, env, st)
		}
		l, err := in.eval(x.Left, fr, env, st)
		if err != nil {
			return None, err
		}
		r, err := in.eval(x.Right, fr, env, st)
		if err != nil {
			return None, err
		}
		return binop(x.Op, l, r, x.Pos())
	case *ast.Index:
		recv, err := in.eval(x.Recv, fr, env, st)
		if err != nil {
			return None, err
		}
		idx, err := in.eval(x.Idx, fr, env, st)
		if err != nil {
			return None, err
		}
		return index(recv, idx, x.Pos())
	case *ast.Call:
		return in.evalCall(x, fr, env, st)
	default:
		return None, &RuntimeError{Pos: e.Pos(), Msg: fmt.Sprintf("unsupported expression %T", e)}
	}
}

func index(recv, idx Value, pos token.Pos) (Value, error) {
	switch recv.Kind {
	case KList:
		if idx.Kind != KInt {
			return None, &RuntimeError{Pos: pos, Msg: "list index must be int"}
		}
		i, ok := at(len(recv.L.Elems), idx.I)
		if !ok {
			return None, &RuntimeError{Pos: pos, Msg: "list index out of range"}
		}
		return recv.L.Elems[i], nil
	case KDict:
		v, ok, err := recv.DictGet(idx)
		if err != nil {
			return None, &RuntimeError{Pos: pos, Msg: err.Error()}
		}
		if !ok {
			return None, &RuntimeError{Pos: pos, Msg: fmt.Sprintf("key error: %s", idx.Repr())}
		}
		return v, nil
	case KStr:
		if idx.Kind != KInt {
			return None, &RuntimeError{Pos: pos, Msg: "string index must be int"}
		}
		runes := []rune(recv.Str())
		i, ok := at(len(runes), idx.I)
		if !ok {
			return None, &RuntimeError{Pos: pos, Msg: "string index out of range"}
		}
		return StrV(string(runes[i])), nil
	default:
		return None, &RuntimeError{Pos: pos, Msg: fmt.Sprintf("cannot index %s", recv.Kind)}
	}
}

// at resolves index i of a sequence of length n, a negative i counting
// from the end; ok is false when it falls outside.
func at(n int, i int64) (int64, bool) {
	if i < 0 {
		i += int64(n)
	}
	return i, i >= 0 && i < int64(n)
}

func binop(op token.Kind, l, r Value, pos token.Pos) (Value, error) {
	fail := func(format string, args ...any) (Value, error) {
		return None, &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	bothNum := l.Kind == KInt && r.Kind == KInt ||
		(l.Kind == KInt || l.Kind == KFloat) && (r.Kind == KInt || r.Kind == KFloat)
	switch op {
	case token.EQ:
		return BoolV(l.Equal(r)), nil
	case token.NEQ:
		return BoolV(!l.Equal(r)), nil
	case token.LT, token.LTE, token.GT, token.GTE:
		cmp, err := compare(l, r)
		if err != nil {
			return fail("%s", err)
		}
		switch op {
		case token.LT:
			return BoolV(cmp < 0), nil
		case token.LTE:
			return BoolV(cmp <= 0), nil
		case token.GT:
			return BoolV(cmp > 0), nil
		default:
			return BoolV(cmp >= 0), nil
		}
	case token.KwIn:
		switch r.Kind {
		case KList:
			for _, e := range r.L.Elems {
				if e.Equal(l) {
					return BoolV(true), nil
				}
			}
			return BoolV(false), nil
		case KDict:
			_, ok, err := r.DictGet(l)
			if err != nil {
				return fail("%s", err)
			}
			return BoolV(ok), nil
		case KStr:
			if l.Kind != KStr {
				return fail("in: left operand must be str")
			}
			return BoolV(strings.Contains(r.Str(), l.Str())), nil
		default:
			return fail("in requires list, dict or str")
		}
	case token.PLUS:
		if l.Kind == KStr && r.Kind == KStr {
			return StrV(l.Str() + r.Str()), nil
		}
		if l.Kind == KList && r.Kind == KList {
			out := make([]Value, 0, len(l.L.Elems)+len(r.L.Elems))
			out = append(out, l.L.Elems...)
			out = append(out, r.L.Elems...)
			return ListV(out...), nil
		}
		if l.Kind == KInt && r.Kind == KInt {
			return IntV(l.I + r.I), nil
		}
		if bothNum {
			return FloatV(l.AsFloat() + r.AsFloat()), nil
		}
		return fail("cannot add %s and %s", l.Kind, r.Kind)
	case token.MINUS:
		if l.Kind == KInt && r.Kind == KInt {
			return IntV(l.I - r.I), nil
		}
		if bothNum {
			return FloatV(l.AsFloat() - r.AsFloat()), nil
		}
		return fail("cannot subtract %s and %s", l.Kind, r.Kind)
	case token.STAR:
		if l.Kind == KInt && r.Kind == KInt {
			return IntV(l.I * r.I), nil
		}
		if bothNum {
			return FloatV(l.AsFloat() * r.AsFloat()), nil
		}
		return fail("cannot multiply %s and %s", l.Kind, r.Kind)
	case token.SLASH:
		if !bothNum {
			return fail("cannot divide %s and %s", l.Kind, r.Kind)
		}
		if r.AsFloat() == 0 {
			return fail("division by zero")
		}
		return FloatV(l.AsFloat() / r.AsFloat()), nil
	case token.DSLASH:
		if l.Kind == KInt && r.Kind == KInt {
			if r.I == 0 {
				return fail("division by zero")
			}
			// Python floor division.
			q := l.I / r.I
			if (l.I%r.I != 0) && ((l.I < 0) != (r.I < 0)) {
				q--
			}
			return IntV(q), nil
		}
		return fail("// requires ints")
	case token.PERCENT:
		if l.Kind == KInt && r.Kind == KInt {
			if r.I == 0 {
				return fail("modulo by zero")
			}
			m := l.I % r.I
			if m != 0 && (m < 0) != (r.I < 0) {
				m += r.I
			}
			return IntV(m), nil
		}
		return fail("%% requires ints")
	default:
		return fail("unknown operator %s", op)
	}
}

// compare orders two numbers or two strs: it returns a negative number,
// zero or a positive number as l is less than, equal to or greater than r.
func compare(l, r Value) (int, error) {
	switch {
	case (l.Kind == KInt || l.Kind == KFloat) && (r.Kind == KInt || r.Kind == KFloat):
		a, b := l.AsFloat(), r.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	case l.Kind == KStr && r.Kind == KStr:
		return strings.Compare(l.Str(), r.Str()), nil
	}
	return 0, fmt.Errorf("cannot compare %s with %s", l.Kind, r.Kind)
}

// ---------------------------------------------------------------------------
// Calls

// evalCall runs a call by its stamp: an inline self-call runs its callee's
// body in a fresh frame over the same state, and a builtin runs the
// implementation at its entry's index. The splitter hoists every other
// call into an Invoke terminator.
func (in *Interp) evalCall(x *ast.Call, fr *frame, env *Frame, st State) (Value, error) {
	if x.Callee != 0 {
		return in.callSelf(x, fr, env, st)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(a, fr, env, st)
		if err != nil {
			return None, err
		}
		args[i] = v
	}
	b := &types.Builtins[x.Builtin-1]
	var recv Value
	if x.Recv != nil {
		var err error
		if recv, err = in.eval(x.Recv, fr, env, st); err != nil {
			return None, err
		}
		// The checker matched the receiver's kind unless its type was Any.
		if recv.Kind != recvKind[b.Recv] {
			return None, &RuntimeError{Pos: x.Pos(), Msg: fmt.Sprintf("%s needs a %s receiver, got %s", b.Name, recvKind[b.Recv], recv.Kind)}
		}
	}
	v, err := builtins[x.Builtin-1](recv, args)
	if err != nil {
		return None, &RuntimeError{Pos: x.Pos(), Msg: err.Error()}
	}
	if b.Mutates {
		// Re-store a container attribute mutated in place, so that
		// write-tracking state backends observe the write.
		in.touchStateAttr(x.Recv, recv, st)
	}
	return v, nil
}

// callSelf runs an inline self-call. The callee's frame is bound on the
// stack when it fits (SlotsIn), and its arguments are evaluated into the
// leading slots, which are its parameters.
func (in *Interp) callSelf(x *ast.Call, fr *frame, env *Frame, st State) (Value, error) {
	m := in.Prog.Methods[x.Callee-1]
	var buf [StackSlots]Value
	slots := SlotsIn(buf[:], m)
	args := slots[:0]
	if len(x.Args) > len(slots) {
		args = make([]Value, 0, len(x.Args)) // an arity error: FrameIn reports it
	}
	for _, a := range x.Args {
		v, err := in.eval(a, fr, env, st)
		if err != nil {
			return None, err
		}
		args = append(args, v)
	}
	if fr.depth+1 > maxCallDepth {
		return None, &RuntimeError{Pos: x.Pos(), Msg: "call depth exceeded"}
	}
	sub, err := FrameIn(m, args, slots)
	if err != nil {
		return None, err
	}
	subFr := frame{class: fr.class, key: fr.key, depth: fr.depth + 1}
	c, v, err := in.execStmts(m.Body, &subFr, &sub, st)
	if err != nil || c != ctrlReturn {
		return None, err
	}
	return v, nil
}

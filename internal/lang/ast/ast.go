// Package ast defines the abstract syntax tree of the stateful-entity DSL.
//
// A Module is a sequence of class definitions. Classes annotated with
// @entity are stateful entities (§2.2 of the paper); the compiler turns
// each of them into a dataflow operator. The AST is deliberately close to
// the Python ast module's shape for the subset the StateFlow compiler
// handles: typed function definitions, assignments, conditionals, for-loops
// over lists, while-loops, and method calls (possibly remote).
package ast

import (
	"fmt"
	"strings"

	"statefulentities.dev/stateflow/internal/lang/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Types (annotations)

// TypeExpr is a parsed type annotation such as int, str, Item, list[int].
type TypeExpr struct {
	Position token.Pos
	Name     string      // "int", "str", "bool", "float", "list", "dict", "None", or a class name
	Args     []*TypeExpr // element types for list[T] / dict[K, V]
}

// Pos returns the annotation's source position.
func (t *TypeExpr) Pos() token.Pos { return t.Position }

// String renders the annotation in source syntax.
func (t *TypeExpr) String() string {
	if t == nil {
		return "<none>"
	}
	if len(t.Args) == 0 {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s[%s]", t.Name, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------------
// Module and definitions

// Module is a parsed source file.
type Module struct {
	Position token.Pos
	Classes  []*ClassDef
}

// Pos returns the module's position.
func (m *Module) Pos() token.Pos { return m.Position }

// ClassDef is a class definition with optional decorators.
type ClassDef struct {
	Position   token.Pos
	Decorators []string // e.g. {"entity"} or {"stateflow"}
	Name       string
	Methods    []*FuncDef
}

// Pos returns the class's position.
func (c *ClassDef) Pos() token.Pos { return c.Position }

// IsEntity reports whether the class carries an entity decorator. Both
// @entity and @stateflow mark stateful entities (the paper uses both).
func (c *ClassDef) IsEntity() bool {
	for _, d := range c.Decorators {
		if d == "entity" || d == "stateflow" {
			return true
		}
	}
	return false
}

// IsTransactional reports whether the class carries @transactional. The
// decorator may also be attached to individual methods.
func (c *ClassDef) IsTransactional() bool {
	for _, d := range c.Decorators {
		if d == "transactional" {
			return true
		}
	}
	return false
}

// Param is a typed function parameter.
type Param struct {
	Position token.Pos
	Name     string
	Type     *TypeExpr // nil only for self
}

// Pos returns the parameter's position.
func (p *Param) Pos() token.Pos { return p.Position }

// FuncDef is a method definition inside a class. The receiver parameter
// (self) is implicit and not part of Params.
type FuncDef struct {
	Position   token.Pos
	Decorators []string
	Name       string
	Params     []*Param
	Returns    *TypeExpr // nil means None
	Body       []Stmt
}

// Pos returns the function's position.
func (f *FuncDef) Pos() token.Pos { return f.Position }

// IsTransactional reports whether the method carries @transactional.
func (f *FuncDef) IsTransactional() bool {
	for _, d := range f.Decorators {
		if d == "transactional" {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// AssignStmt is `target = value` or an annotated `target: T = value`.
// Target is either *Name or *Attr (self.field).
type AssignStmt struct {
	Position token.Pos
	Target   Expr
	Type     *TypeExpr // optional annotation
	Value    Expr
}

// AugAssignStmt is `target += value` and friends.
type AugAssignStmt struct {
	Position token.Pos
	Target   Expr
	Op       token.Kind // PLUS, MINUS, STAR, SLASH
	Value    Expr
}

// ExprStmt is a bare expression statement, e.g. a call.
type ExprStmt struct {
	Position token.Pos
	Value    Expr
}

// ReturnStmt returns a value (possibly nil for bare return).
type ReturnStmt struct {
	Position token.Pos
	Value    Expr
}

// IfStmt is if/elif/else. Elifs are desugared by the parser into nested
// IfStmt values in Else.
type IfStmt struct {
	Position token.Pos
	Cond     Expr
	Then     []Stmt
	Else     []Stmt // possibly nil
}

// ForStmt is `for var in iterable:`. VarSlot, when non-zero, is the
// 1-based frame slot of the loop variable (see Name.Slot).
type ForStmt struct {
	Position token.Pos
	Var      string
	VarSlot  int
	Iterable Expr
	Body     []Stmt
}

// WhileStmt is `while cond:`.
type WhileStmt struct {
	Position token.Pos
	Cond     Expr
	Body     []Stmt
}

// PassStmt is the no-op statement.
type PassStmt struct{ Position token.Pos }

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Position token.Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Position token.Pos }

// Pos implementations.
func (s *AssignStmt) Pos() token.Pos    { return s.Position }
func (s *AugAssignStmt) Pos() token.Pos { return s.Position }
func (s *ExprStmt) Pos() token.Pos      { return s.Position }
func (s *ReturnStmt) Pos() token.Pos    { return s.Position }
func (s *IfStmt) Pos() token.Pos        { return s.Position }
func (s *ForStmt) Pos() token.Pos       { return s.Position }
func (s *WhileStmt) Pos() token.Pos     { return s.Position }
func (s *PassStmt) Pos() token.Pos      { return s.Position }
func (s *BreakStmt) Pos() token.Pos     { return s.Position }
func (s *ContinueStmt) Pos() token.Pos  { return s.Position }

func (*AssignStmt) stmt()    {}
func (*AugAssignStmt) stmt() {}
func (*ExprStmt) stmt()      {}
func (*ReturnStmt) stmt()    {}
func (*IfStmt) stmt()        {}
func (*ForStmt) stmt()       {}
func (*WhileStmt) stmt()     {}
func (*PassStmt) stmt()      {}
func (*BreakStmt) stmt()     {}
func (*ContinueStmt) stmt()  {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// Name is an identifier reference. Slot is the 1-based frame slot the
// compiler's layout pass resolved the identifier to (zero until then); the
// interpreter addresses the variable by it alone.
type Name struct {
	Position token.Pos
	Ident    string
	Slot     int
}

// SelfRef is the receiver reference `self`.
type SelfRef struct{ Position token.Pos }

// Attr is attribute access `X.field` (most commonly self.field). Slot,
// when non-zero, is the 1-based attribute slot of Field in the enclosing
// class's layout (stamped by the compiler for self attributes only).
type Attr struct {
	Position token.Pos
	Recv     Expr
	Field    string
	Slot     int
}

// IntLit is an integer literal.
type IntLit struct {
	Position token.Pos
	Value    int64
}

// FloatLit is a float literal.
type FloatLit struct {
	Position token.Pos
	Value    float64
}

// StrLit is a string literal.
type StrLit struct {
	Position token.Pos
	Value    string
}

// BoolLit is True/False.
type BoolLit struct {
	Position token.Pos
	Value    bool
}

// NoneLit is None.
type NoneLit struct{ Position token.Pos }

// ListLit is [a, b, c].
type ListLit struct {
	Position token.Pos
	Elems    []Expr
}

// DictLit is {k: v, ...}.
type DictLit struct {
	Position token.Pos
	Keys     []Expr
	Values   []Expr
}

// BinOp is a binary operation, including comparisons and and/or.
type BinOp struct {
	Position token.Pos
	Op       token.Kind
	Left     Expr
	Right    Expr
}

// UnaryOp is `not x` or `-x`.
type UnaryOp struct {
	Position token.Pos
	Op       token.Kind // KwNot or MINUS
	Operand  Expr
}

// Call is a function or method call. Recv is nil for builtin calls like
// len(x); for method calls it is the receiver expression (self or a name
// typed as an entity class, in which case the call is remote §2.3).
// Builtin and Callee are stamped once the call is resolved; a call the
// interpreter evaluates carries exactly one of them.
type Call struct {
	Position token.Pos
	Recv     Expr   // nil, *SelfRef, *Name, or *Attr
	Func     string // method or builtin or class name (constructor)
	Args     []Expr
	// Builtin is the 1-based index in types.Builtins of the builtin
	// function or container method the call names, stamped by the checker.
	Builtin int
	// Callee is the 1-based index in ir.Program.Methods of the method an
	// inline self-call runs, stamped by the compiler.
	Callee int
}

// Index is subscripting `x[i]`.
type Index struct {
	Position token.Pos
	Recv     Expr
	Idx      Expr
}

// Pos implementations.
func (e *Name) Pos() token.Pos     { return e.Position }
func (e *SelfRef) Pos() token.Pos  { return e.Position }
func (e *Attr) Pos() token.Pos     { return e.Position }
func (e *IntLit) Pos() token.Pos   { return e.Position }
func (e *FloatLit) Pos() token.Pos { return e.Position }
func (e *StrLit) Pos() token.Pos   { return e.Position }
func (e *BoolLit) Pos() token.Pos  { return e.Position }
func (e *NoneLit) Pos() token.Pos  { return e.Position }
func (e *ListLit) Pos() token.Pos  { return e.Position }
func (e *DictLit) Pos() token.Pos  { return e.Position }
func (e *BinOp) Pos() token.Pos    { return e.Position }
func (e *UnaryOp) Pos() token.Pos  { return e.Position }
func (e *Call) Pos() token.Pos     { return e.Position }
func (e *Index) Pos() token.Pos    { return e.Position }

func (*Name) expr()     {}
func (*SelfRef) expr()  {}
func (*Attr) expr()     {}
func (*IntLit) expr()   {}
func (*FloatLit) expr() {}
func (*StrLit) expr()   {}
func (*BoolLit) expr()  {}
func (*NoneLit) expr()  {}
func (*ListLit) expr()  {}
func (*DictLit) expr()  {}
func (*BinOp) expr()    {}
func (*UnaryOp) expr()  {}
func (*Call) expr()     {}
func (*Index) expr()    {}

// ---------------------------------------------------------------------------
// Traversal helpers

// WalkExpr calls fn for e and every sub-expression, pre-order. fn returning
// false prunes the subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Attr:
		WalkExpr(x.Recv, fn)
	case *ListLit:
		for _, el := range x.Elems {
			WalkExpr(el, fn)
		}
	case *DictLit:
		for i := range x.Keys {
			WalkExpr(x.Keys[i], fn)
			WalkExpr(x.Values[i], fn)
		}
	case *BinOp:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *UnaryOp:
		WalkExpr(x.Operand, fn)
	case *Call:
		if x.Recv != nil {
			WalkExpr(x.Recv, fn)
		}
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Index:
		WalkExpr(x.Recv, fn)
		WalkExpr(x.Idx, fn)
	}
}

// WalkStmts calls fn for every statement in the list, recursing into
// control-flow bodies, pre-order.
func WalkStmts(stmts []Stmt, fn func(Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch x := s.(type) {
		case *IfStmt:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		case *ForStmt:
			WalkStmts(x.Body, fn)
		case *WhileStmt:
			WalkStmts(x.Body, fn)
		}
	}
}

// ExprsOf returns the expressions directly contained in a statement (not
// recursing into nested statements).
func ExprsOf(s Stmt) []Expr {
	switch x := s.(type) {
	case *AssignStmt:
		return []Expr{x.Target, x.Value}
	case *AugAssignStmt:
		return []Expr{x.Target, x.Value}
	case *ExprStmt:
		return []Expr{x.Value}
	case *ReturnStmt:
		if x.Value != nil {
			return []Expr{x.Value}
		}
	case *IfStmt:
		return []Expr{x.Cond}
	case *ForStmt:
		return []Expr{x.Iterable}
	case *WhileStmt:
		return []Expr{x.Cond}
	}
	return nil
}

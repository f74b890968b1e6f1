// Package types implements the static type system of the stateful-entity
// DSL and the first static-analysis pass of the StateFlow compiler (§2.1,
// §2.2): it extracts each class's attributes, method signatures and type
// hints, verifies the programming-model restrictions (mandatory type hints,
// mandatory __key__ for entities, no recursion, immutable keys), and
// resolves every method call to its target, classifying calls on other
// entities as remote.
package types

import (
	"fmt"
	"sort"
	"strings"

	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/token"
)

// Kind enumerates the kinds of DSL types.
type Kind int

// Type kinds.
const (
	KInvalid Kind = iota
	KInt
	KFloat
	KStr
	KBool
	KNone
	KList
	KDict
	KEntity
	KAny // used for empty containers and gradual spots
)

// Type is a DSL type. Types are immutable once constructed; the package
// exposes singletons for scalars.
type Type struct {
	Kind   Kind
	Elem   *Type  // list element / dict value
	Key    *Type  // dict key
	Entity string // class name for KEntity
}

// Scalar singletons.
var (
	Int     = &Type{Kind: KInt}
	Float   = &Type{Kind: KFloat}
	Str     = &Type{Kind: KStr}
	Bool    = &Type{Kind: KBool}
	None    = &Type{Kind: KNone}
	Any     = &Type{Kind: KAny}
	Invalid = &Type{Kind: KInvalid}
)

// ListOf returns the list type with the given element type.
func ListOf(elem *Type) *Type { return &Type{Kind: KList, Elem: elem} }

// DictOf returns the dict type with the given key and value types.
func DictOf(key, val *Type) *Type { return &Type{Kind: KDict, Key: key, Elem: val} }

// EntityOf returns the entity reference type for a class.
func EntityOf(class string) *Type { return &Type{Kind: KEntity, Entity: class} }

// String renders the type in annotation syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "str"
	case KBool:
		return "bool"
	case KNone:
		return "None"
	case KList:
		return fmt.Sprintf("list[%s]", t.Elem)
	case KDict:
		return fmt.Sprintf("dict[%s, %s]", t.Key, t.Elem)
	case KEntity:
		return t.Entity
	case KAny:
		return "any"
	default:
		return "<invalid>"
	}
}

// IsEntity reports whether t is an entity reference.
func (t *Type) IsEntity() bool { return t != nil && t.Kind == KEntity }

// IsNumeric reports whether t is int or float.
func (t *Type) IsNumeric() bool {
	return t != nil && (t.Kind == KInt || t.Kind == KFloat)
}

// Equal reports structural type equality. Any is equal to everything but
// an entity reference, supporting empty-container literals: no entity
// reference flows into a value of unknown type, whence it could reach
// state (§2.2) or a call the checker cannot resolve.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind == KAny || o.Kind == KAny {
		return !t.IsEntity() && !o.IsEntity()
	}
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KList:
		return t.Elem.Equal(o.Elem)
	case KDict:
		return t.Key.Equal(o.Key) && t.Elem.Equal(o.Elem)
	case KEntity:
		return t.Entity == o.Entity
	}
	return true
}

// AssignableTo reports whether a value of type t can be assigned to a slot
// of type dst. Int widens to float.
func (t *Type) AssignableTo(dst *Type) bool {
	if t.Equal(dst) {
		return true
	}
	if t != nil && dst != nil && t.Kind == KInt && dst.Kind == KFloat {
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Checked program metadata

// Attr is a class attribute discovered in __init__ (self.X assignments).
type Attr struct {
	Name string
	Type *Type
}

// Param is a typed method parameter.
type Param struct {
	Name string
	Type *Type
}

// Method is the checked signature and body of a method.
type Method struct {
	Class         *Class
	Name          string
	Params        []Param
	Returns       *Type // None when the method declares no return type
	Def           *ast.FuncDef
	Transactional bool
}

// Param looks up a parameter by name.
func (m *Method) Param(name string) (Param, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// QName is the method's qualified name Class.method.
func (m *Method) QName() string { return m.Class.Name + "." + m.Name }

// Class is the checked metadata of a class definition.
type Class struct {
	Name        string
	Entity      bool
	Def         *ast.ClassDef
	Attrs       []Attr // ordered by first assignment in __init__
	KeyAttr     string // attribute returned by __key__ (entities only)
	Methods     map[string]*Method
	MethodOrder []string
}

// Attr looks up an attribute by name.
func (c *Class) Attr(name string) (*Type, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a.Type, true
		}
	}
	return nil, false
}

// CallTarget resolves a call expression to its target method.
type CallTarget struct {
	Class  string
	Method string
	Remote bool // call on another entity (crosses operator boundary, §2.3)
	Ctor   bool // entity constructor call ClassName(...)
}

// Info is the result of checking a module: the symbol tables consumed by
// later compiler passes.
type Info struct {
	Classes map[string]*Class
	Order   []string // class declaration order
	// Calls maps every resolved method/constructor call site.
	Calls map[*ast.Call]CallTarget
}

// Error is a semantic (type) error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: type error: %s", e.Pos, e.Msg) }

// ---------------------------------------------------------------------------
// Checker

type checker struct {
	info *Info
	errs []error
}

// Check runs the static analysis pass over a parsed module.
func Check(mod *ast.Module) (*Info, error) {
	c := &checker{info: &Info{
		Classes: map[string]*Class{},
		Calls:   map[*ast.Call]CallTarget{},
	}}
	c.collectClasses(mod)
	if len(c.errs) > 0 {
		return nil, c.errs[0]
	}
	for _, name := range c.info.Order {
		c.checkClass(c.info.Classes[name])
	}
	if len(c.errs) > 0 {
		return nil, c.errs[0]
	}
	c.checkNoRecursion()
	c.checkKeyImmutability()
	if len(c.errs) > 0 {
		return nil, c.errs[0]
	}
	return c.info, nil
}

func (c *checker) errf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// collectClasses registers class names and signatures so classes can
// reference each other regardless of declaration order.
func (c *checker) collectClasses(mod *ast.Module) {
	for _, cd := range mod.Classes {
		if _, dup := c.info.Classes[cd.Name]; dup {
			c.errf(cd.Pos(), "duplicate class %s", cd.Name)
			continue
		}
		cls := &Class{
			Name:    cd.Name,
			Entity:  cd.IsEntity(),
			Def:     cd,
			Methods: map[string]*Method{},
		}
		c.info.Classes[cd.Name] = cls
		c.info.Order = append(c.info.Order, cd.Name)
	}
	for _, cd := range mod.Classes {
		cls := c.info.Classes[cd.Name]
		if cls == nil {
			continue
		}
		for _, fd := range cd.Methods {
			if _, dup := cls.Methods[fd.Name]; dup {
				c.errf(fd.Pos(), "duplicate method %s.%s", cd.Name, fd.Name)
				continue
			}
			m := &Method{
				Class:         cls,
				Name:          fd.Name,
				Def:           fd,
				Transactional: fd.IsTransactional() || cd.IsTransactional(),
			}
			for _, p := range fd.Params {
				t := c.resolveType(p.Type)
				if t == Invalid {
					c.errf(p.Pos(), "parameter %s of %s.%s has unknown type %s",
						p.Name, cd.Name, fd.Name, p.Type)
				}
				m.Params = append(m.Params, Param{Name: p.Name, Type: t})
			}
			if fd.Returns != nil {
				rt := c.resolveType(fd.Returns)
				if rt == Invalid {
					c.errf(fd.Returns.Pos(), "return type of %s.%s is unknown: %s",
						cd.Name, fd.Name, fd.Returns)
				}
				m.Returns = rt
			} else {
				m.Returns = None
			}
			cls.Methods[fd.Name] = m
			cls.MethodOrder = append(cls.MethodOrder, fd.Name)
		}
	}
}

func (c *checker) resolveType(te *ast.TypeExpr) *Type {
	if te == nil {
		return None
	}
	switch te.Name {
	case "int":
		return Int
	case "float":
		return Float
	case "str":
		return Str
	case "bool":
		return Bool
	case "None":
		return None
	case "list":
		if len(te.Args) != 1 {
			return Invalid
		}
		elem := c.resolveType(te.Args[0])
		if elem == Invalid {
			return Invalid
		}
		return ListOf(elem)
	case "dict":
		if len(te.Args) != 2 {
			return Invalid
		}
		k := c.resolveType(te.Args[0])
		v := c.resolveType(te.Args[1])
		if k == Invalid || v == Invalid {
			return Invalid
		}
		return DictOf(k, v)
	default:
		if _, ok := c.info.Classes[te.Name]; ok {
			return EntityOf(te.Name)
		}
		return Invalid
	}
}

func (c *checker) checkClass(cls *Class) {
	init := cls.Methods["__init__"]
	if init == nil {
		c.errf(cls.Def.Pos(), "class %s must define __init__", cls.Name)
		return
	}
	c.collectAttrs(cls, init)
	if cls.Entity {
		key := cls.Methods["__key__"]
		if key == nil {
			c.errf(cls.Def.Pos(), "entity %s must define __key__ (§2.2)", cls.Name)
			return
		}
		c.checkKeyMethod(cls, key)
	}
	for _, name := range cls.MethodOrder {
		c.checkMethod(cls.Methods[name])
	}
}

// collectAttrs walks __init__ and records every annotated self.X assignment
// as a class attribute. Attributes must be declared (assigned) at the top
// level of __init__ with a type annotation so the full state schema is
// statically known.
func (c *checker) collectAttrs(cls *Class, init *Method) {
	for _, s := range init.Def.Body {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		attr, ok := as.Target.(*ast.Attr)
		if !ok {
			continue
		}
		if _, isSelf := attr.Recv.(*ast.SelfRef); !isSelf {
			continue
		}
		if _, dup := cls.Attr(attr.Field); dup {
			c.errf(as.Pos(), "attribute self.%s assigned twice in %s.__init__", attr.Field, cls.Name)
			continue
		}
		var t *Type
		if as.Type != nil {
			t = c.resolveType(as.Type)
			if t == Invalid {
				c.errf(as.Type.Pos(), "attribute self.%s has unknown type %s", attr.Field, as.Type)
				t = Any
			}
		} else {
			c.errf(as.Pos(), "attribute self.%s in %s.__init__ requires a type annotation (§2.2 static type hints)", attr.Field, cls.Name)
			t = Any
		}
		if t.IsEntity() {
			c.errf(as.Pos(), "attribute self.%s: entity references cannot be stored in state (state must be serializable, §2.2)", attr.Field)
		}
		cls.Attrs = append(cls.Attrs, Attr{Name: attr.Field, Type: t})
	}
	if len(cls.Attrs) == 0 {
		c.errf(init.Def.Pos(), "class %s declares no attributes in __init__", cls.Name)
	}
}

// checkKeyMethod validates that __key__ is `return self.<attr>` for an
// existing attribute of type str or int.
func (c *checker) checkKeyMethod(cls *Class, key *Method) {
	if len(key.Params) != 0 {
		c.errf(key.Def.Pos(), "%s.__key__ must take no parameters", cls.Name)
		return
	}
	if len(key.Def.Body) != 1 {
		c.errf(key.Def.Pos(), "%s.__key__ must be a single return of a state attribute", cls.Name)
		return
	}
	ret, ok := key.Def.Body[0].(*ast.ReturnStmt)
	if !ok || ret.Value == nil {
		c.errf(key.Def.Pos(), "%s.__key__ must return a state attribute", cls.Name)
		return
	}
	attr, ok := ret.Value.(*ast.Attr)
	if !ok {
		c.errf(ret.Pos(), "%s.__key__ must return self.<attribute>", cls.Name)
		return
	}
	if _, isSelf := attr.Recv.(*ast.SelfRef); !isSelf {
		c.errf(ret.Pos(), "%s.__key__ must return self.<attribute>", cls.Name)
		return
	}
	t, exists := cls.Attr(attr.Field)
	if !exists {
		c.errf(ret.Pos(), "%s.__key__ returns unknown attribute self.%s", cls.Name, attr.Field)
		return
	}
	if t.Kind != KStr && t.Kind != KInt {
		c.errf(ret.Pos(), "%s key attribute self.%s must be str or int, got %s", cls.Name, attr.Field, t)
	}
	cls.KeyAttr = attr.Field
}

// methodScope tracks local variable types while checking a body.
type methodScope struct {
	c      *checker
	cls    *Class
	m      *Method
	vars   map[string]*Type
	inInit bool
}

func (c *checker) checkMethod(m *Method) {
	sc := &methodScope{
		c:      c,
		cls:    m.Class,
		m:      m,
		vars:   map[string]*Type{},
		inInit: m.IsInit(),
	}
	for _, p := range m.Params {
		if _, dup := sc.vars[p.Name]; dup {
			c.errf(m.Def.Pos(), "duplicate parameter %s in %s", p.Name, m.QName())
		}
		sc.vars[p.Name] = p.Type
	}
	sc.checkStmts(m.Def.Body)
}

// IsInit reports whether the method is __init__.
func (m *Method) IsInit() bool { return m.Name == "__init__" }

func (sc *methodScope) checkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		sc.checkStmt(s)
	}
}

func (sc *methodScope) checkStmt(s ast.Stmt) {
	c := sc.c
	switch st := s.(type) {
	case *ast.AssignStmt:
		vt := sc.exprType(st.Value)
		switch target := st.Target.(type) {
		case *ast.Name:
			var declared *Type
			if st.Type != nil {
				declared = c.resolveType(st.Type)
				if declared == Invalid {
					c.errf(st.Type.Pos(), "unknown type %s", st.Type)
					declared = Any
				}
				if !vt.AssignableTo(declared) {
					c.errf(st.Pos(), "cannot assign %s to %s (declared %s)", vt, target.Ident, declared)
				}
			} else if prev, ok := sc.vars[target.Ident]; ok {
				if !vt.AssignableTo(prev) {
					c.errf(st.Pos(), "cannot assign %s to %s (previously %s)", vt, target.Ident, prev)
				}
				declared = prev
			} else {
				declared = vt
			}
			sc.vars[target.Ident] = declared
		case *ast.Attr:
			if sc.inInit {
				return // attribute declarations already collected
			}
			at, ok := sc.cls.Attr(target.Field)
			if !ok {
				c.errf(st.Pos(), "%s has no attribute self.%s (attributes must be declared in __init__)", sc.cls.Name, target.Field)
				return
			}
			if !vt.AssignableTo(at) {
				c.errf(st.Pos(), "cannot assign %s to self.%s (%s)", vt, target.Field, at)
			}
		case *ast.Index:
			rt := sc.exprType(target.Recv)
			it := sc.exprType(target.Idx)
			switch rt.Kind {
			case KList:
				if it.Kind != KInt && it.Kind != KAny {
					c.errf(st.Pos(), "list index must be int, got %s", it)
				}
				if !vt.AssignableTo(rt.Elem) {
					c.errf(st.Pos(), "cannot store %s in %s", vt, rt)
				}
			case KDict:
				if !it.AssignableTo(rt.Key) {
					c.errf(st.Pos(), "dict key must be %s, got %s", rt.Key, it)
				}
				if !vt.AssignableTo(rt.Elem) {
					c.errf(st.Pos(), "cannot store %s in %s", vt, rt)
				}
			case KAny:
			default:
				c.errf(st.Pos(), "cannot index-assign into %s", rt)
			}
		}
	case *ast.AugAssignStmt:
		vt := sc.exprType(st.Value)
		var tt *Type
		switch target := st.Target.(type) {
		case *ast.Name:
			t, ok := sc.vars[target.Ident]
			if !ok {
				c.errf(st.Pos(), "undefined variable %s", target.Ident)
				return
			}
			tt = t
		case *ast.Attr:
			t, ok := sc.cls.Attr(target.Field)
			if !ok {
				c.errf(st.Pos(), "%s has no attribute self.%s", sc.cls.Name, target.Field)
				return
			}
			tt = t
		default:
			c.errf(st.Pos(), "invalid augmented assignment target")
			return
		}
		if st.Op == token.PLUS && tt.Kind == KStr && vt.Kind == KStr {
			return
		}
		if st.Op == token.PLUS && tt.Kind == KList && vt.Kind == KList {
			return
		}
		if !tt.IsNumeric() || !vt.IsNumeric() {
			c.errf(st.Pos(), "augmented assignment needs numeric operands, got %s and %s", tt, vt)
		}
	case *ast.ExprStmt:
		sc.exprType(st.Value)
	case *ast.ReturnStmt:
		if sc.m.IsInit() {
			if st.Value != nil {
				c.errf(st.Pos(), "__init__ cannot return a value")
			}
			return
		}
		var vt *Type = None
		if st.Value != nil {
			vt = sc.exprType(st.Value)
		}
		if !vt.AssignableTo(sc.m.Returns) {
			c.errf(st.Pos(), "%s returns %s but declares %s", sc.m.QName(), vt, sc.m.Returns)
		}
	case *ast.IfStmt:
		ct := sc.exprType(st.Cond)
		if ct.Kind != KBool && ct.Kind != KAny {
			c.errf(st.Cond.Pos(), "if condition must be bool, got %s", ct)
		}
		sc.checkStmts(st.Then)
		sc.checkStmts(st.Else)
	case *ast.ForStmt:
		it := sc.exprType(st.Iterable)
		var elem *Type = Any
		switch it.Kind {
		case KList:
			elem = it.Elem
		case KAny:
		default:
			c.errf(st.Iterable.Pos(), "for-loops iterate over lists, got %s (§2.2)", it)
		}
		prev, had := sc.vars[st.Var]
		sc.vars[st.Var] = elem
		sc.checkStmts(st.Body)
		if had {
			sc.vars[st.Var] = prev
		}
	case *ast.WhileStmt:
		ct := sc.exprType(st.Cond)
		if ct.Kind != KBool && ct.Kind != KAny {
			c.errf(st.Cond.Pos(), "while condition must be bool, got %s", ct)
		}
		sc.checkStmts(st.Body)
	case *ast.PassStmt, *ast.BreakStmt, *ast.ContinueStmt:
	}
}

// exprType infers the type of an expression.
func (sc *methodScope) exprType(e ast.Expr) *Type {
	c := sc.c
	switch x := e.(type) {
	case *ast.IntLit:
		return Int
	case *ast.FloatLit:
		return Float
	case *ast.StrLit:
		return Str
	case *ast.BoolLit:
		return Bool
	case *ast.NoneLit:
		return None
	case *ast.SelfRef:
		return EntityOf(sc.cls.Name)
	case *ast.Name:
		if t, ok := sc.vars[x.Ident]; ok {
			return t
		}
		c.errf(x.Pos(), "undefined variable %s", x.Ident)
		return Invalid
	case *ast.Attr:
		rt := sc.exprType(x.Recv)
		if _, isSelf := x.Recv.(*ast.SelfRef); isSelf {
			if t, ok := sc.cls.Attr(x.Field); ok {
				return t
			}
			if sc.inInit {
				// Reading an attribute being built in __init__.
				return Any
			}
			c.errf(x.Pos(), "%s has no attribute self.%s", sc.cls.Name, x.Field)
			return Invalid
		}
		if rt.IsEntity() {
			c.errf(x.Pos(), "cannot read attribute %s of remote entity %s directly; call a method instead (§2.3)", x.Field, rt.Entity)
			return Invalid
		}
		c.errf(x.Pos(), "type %s has no attributes", rt)
		return Invalid
	case *ast.ListLit:
		var elem *Type = Any
		for i, el := range x.Elems {
			et := sc.exprType(el)
			if i == 0 {
				elem = et
			} else if !et.Equal(elem) {
				c.errf(el.Pos(), "list elements must share one type; got %s and %s", elem, et)
			}
		}
		return ListOf(elem)
	case *ast.DictLit:
		var kt, vt *Type = Any, Any
		for i := range x.Keys {
			k := sc.exprType(x.Keys[i])
			v := sc.exprType(x.Values[i])
			if i == 0 {
				kt, vt = k, v
			} else {
				if !k.Equal(kt) {
					c.errf(x.Keys[i].Pos(), "dict keys must share one type")
				}
				if !v.Equal(vt) {
					c.errf(x.Values[i].Pos(), "dict values must share one type")
				}
			}
		}
		return DictOf(kt, vt)
	case *ast.UnaryOp:
		ot := sc.exprType(x.Operand)
		switch x.Op {
		case token.KwNot:
			if ot.Kind != KBool && ot.Kind != KAny {
				c.errf(x.Pos(), "not requires bool, got %s", ot)
			}
			return Bool
		case token.MINUS:
			if !ot.IsNumeric() && ot.Kind != KAny {
				c.errf(x.Pos(), "unary minus requires a number, got %s", ot)
			}
			return ot
		}
		return Invalid
	case *ast.BinOp:
		return sc.binOpType(x)
	case *ast.Index:
		rt := sc.exprType(x.Recv)
		it := sc.exprType(x.Idx)
		switch rt.Kind {
		case KList:
			if it.Kind != KInt && it.Kind != KAny {
				c.errf(x.Idx.Pos(), "list index must be int, got %s", it)
			}
			return rt.Elem
		case KDict:
			if !it.AssignableTo(rt.Key) {
				c.errf(x.Idx.Pos(), "dict key must be %s, got %s", rt.Key, it)
			}
			return rt.Elem
		case KStr:
			if it.Kind != KInt && it.Kind != KAny {
				c.errf(x.Idx.Pos(), "string index must be int, got %s", it)
			}
			return Str
		case KAny:
			return Any
		default:
			c.errf(x.Pos(), "cannot index into %s", rt)
			return Invalid
		}
	case *ast.Call:
		return sc.callType(x)
	}
	return Invalid
}

func (sc *methodScope) binOpType(x *ast.BinOp) *Type {
	c := sc.c
	lt := sc.exprType(x.Left)
	rt := sc.exprType(x.Right)
	switch x.Op {
	case token.KwAnd, token.KwOr:
		if (lt.Kind != KBool && lt.Kind != KAny) || (rt.Kind != KBool && rt.Kind != KAny) {
			c.errf(x.Pos(), "%s requires bool operands, got %s and %s", x.Op, lt, rt)
		}
		return Bool
	case token.EQ, token.NEQ:
		return Bool
	case token.LT, token.LTE, token.GT, token.GTE:
		ok := (lt.IsNumeric() && rt.IsNumeric()) ||
			(lt.Kind == KStr && rt.Kind == KStr) ||
			lt.Kind == KAny || rt.Kind == KAny
		if !ok {
			c.errf(x.Pos(), "cannot compare %s with %s", lt, rt)
		}
		return Bool
	case token.KwIn:
		switch rt.Kind {
		case KList:
			if !lt.AssignableTo(rt.Elem) {
				c.errf(x.Pos(), "cannot test %s membership in %s", lt, rt)
			}
		case KDict:
			if !lt.AssignableTo(rt.Key) {
				c.errf(x.Pos(), "cannot test %s membership in %s", lt, rt)
			}
		case KStr:
			if lt.Kind != KStr {
				c.errf(x.Pos(), "cannot test %s membership in str", lt)
			}
		case KAny:
		default:
			c.errf(x.Pos(), "in requires list, dict or str, got %s", rt)
		}
		return Bool
	case token.PLUS:
		if lt.Kind == KStr && rt.Kind == KStr {
			return Str
		}
		if lt.Kind == KList && rt.Kind == KList && lt.Elem.Equal(rt.Elem) {
			return lt
		}
		fallthrough
	case token.MINUS, token.STAR, token.SLASH, token.DSLASH, token.PERCENT:
		if lt.Kind == KAny || rt.Kind == KAny {
			return Any
		}
		if !lt.IsNumeric() || !rt.IsNumeric() {
			c.errf(x.Pos(), "operator %s requires numbers, got %s and %s", x.Op, lt, rt)
			return Invalid
		}
		if x.Op == token.SLASH {
			return Float
		}
		if lt.Kind == KFloat || rt.Kind == KFloat {
			return Float
		}
		return Int
	}
	return Invalid
}

func (sc *methodScope) callType(x *ast.Call) *Type {
	c := sc.c
	if x.Recv == nil {
		// Builtin or constructor.
		if cls, ok := c.info.Classes[x.Func]; ok {
			init := cls.Methods["__init__"]
			sc.checkArgs(x, init, x.Args)
			c.info.Calls[x] = CallTarget{Class: cls.Name, Method: "__init__", Remote: cls.Name != sc.cls.Name, Ctor: true}
			return EntityOf(cls.Name)
		}
		return sc.builtinCall(x, nil)
	}
	rt := sc.exprType(x.Recv)
	switch rt.Kind {
	case KEntity:
		cls := c.info.Classes[rt.Entity]
		if cls == nil {
			c.errf(x.Pos(), "unknown class %s", rt.Entity)
			return Invalid
		}
		m := cls.Methods[x.Func]
		if m == nil {
			c.errf(x.Pos(), "%s has no method %s", cls.Name, x.Func)
			return Invalid
		}
		sc.checkArgs(x, m, x.Args)
		_, isSelf := x.Recv.(*ast.SelfRef)
		c.info.Calls[x] = CallTarget{Class: cls.Name, Method: x.Func, Remote: !isSelf}
		return m.Returns
	case KList, KDict, KStr, KAny:
		// An Any receiver resolves to a builtin method too, never to an
		// entity method: an entity reference never has type Any, and a
		// method the checker cannot see would escape the effect pass that
		// marks a method read-only.
		return sc.builtinCall(x, rt)
	default:
		c.errf(x.Pos(), "type %s has no methods", rt)
		return Invalid
	}
}

func (sc *methodScope) checkArgs(call *ast.Call, m *Method, args []ast.Expr) {
	c := sc.c
	if m == nil {
		for _, a := range args {
			sc.exprType(a)
		}
		return
	}
	if len(args) != len(m.Params) {
		c.errf(call.Pos(), "%s expects %d arguments, got %d", m.QName(), len(m.Params), len(args))
	}
	for i, a := range args {
		at := sc.exprType(a)
		if i < len(m.Params) && !at.AssignableTo(m.Params[i].Type) {
			c.errf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, m.QName(), at, m.Params[i].Type)
		}
	}
}

// builtinCall resolves a call that names no entity method against the
// builtin table: a function when rt is nil, else a method of a receiver of
// type rt. It stamps the entry on the call and returns the result type.
func (sc *methodScope) builtinCall(x *ast.Call, rt *Type) *Type {
	c := sc.c
	args := make([]*Type, len(x.Args))
	for i, a := range x.Args {
		args[i] = sc.exprType(a)
	}
	id, ok := lookupBuiltin(rt, x.Func)
	switch {
	case !ok && rt == nil:
		c.errf(x.Pos(), "unknown function %s", x.Func)
		return Invalid
	case !ok:
		c.errf(x.Pos(), "%s has no method %s", rt, x.Func)
		return Invalid
	}
	x.Builtin = id + 1
	b := &Builtins[id]
	if len(args) < b.Min || b.Max >= 0 && len(args) > b.Max {
		c.errf(x.Pos(), "%s %s, got %d", b.Name, b.arity(), len(args))
		return Invalid
	}
	t, bad := b.Type(rt, args)
	if bad != "" {
		c.errf(x.Pos(), "%s: %s", b.Name, bad)
		return Invalid
	}
	return t
}

// ---------------------------------------------------------------------------
// Whole-program restrictions

// checkNoRecursion builds the method-level call graph (analysis pass 2,
// §2.1/§2.3) and rejects any cycle: recursion would unroll into an infinite
// state machine (§2.5, §5).
func (c *checker) checkNoRecursion() {
	// Edges between qualified method names.
	edges := map[string][]string{}
	pos := map[string]token.Pos{}
	for _, cn := range c.info.Order {
		cls := c.info.Classes[cn]
		for _, mn := range cls.MethodOrder {
			m := cls.Methods[mn]
			q := m.QName()
			pos[q] = m.Def.Pos()
			ast.WalkStmts(m.Def.Body, func(s ast.Stmt) {
				for _, e := range ast.ExprsOf(s) {
					ast.WalkExpr(e, func(ex ast.Expr) bool {
						call, ok := ex.(*ast.Call)
						if !ok {
							return true
						}
						if tgt, ok := c.info.Calls[call]; ok && !tgt.Ctor {
							edges[q] = append(edges[q], tgt.Class+"."+tgt.Method)
						}
						return true
					})
				}
			})
		}
	}
	// DFS cycle detection with deterministic order.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var nodes []string
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var stack []string
	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range edges[n] {
			switch color[m] {
			case grey:
				cycle := append(append([]string{}, stack...), m)
				c.errf(pos[n], "recursive call chain is not allowed (§2.2): %s", strings.Join(cycle, " -> "))
				return false
			case white:
				if !visit(m) {
					return false
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return true
	}
	for _, n := range nodes {
		if color[n] == white {
			if !visit(n) {
				return
			}
		}
	}
}

// checkKeyImmutability rejects writes to the key attribute outside
// __init__: "the key of a stateful entity cannot change throughout that
// entity's lifetime" (§2.2).
func (c *checker) checkKeyImmutability() {
	for _, cn := range c.info.Order {
		cls := c.info.Classes[cn]
		if cls.KeyAttr == "" {
			continue
		}
		for _, mn := range cls.MethodOrder {
			m := cls.Methods[mn]
			if m.IsInit() {
				continue
			}
			ast.WalkStmts(m.Def.Body, func(s ast.Stmt) {
				var target ast.Expr
				switch st := s.(type) {
				case *ast.AssignStmt:
					target = st.Target
				case *ast.AugAssignStmt:
					target = st.Target
				default:
					return
				}
				if attr, ok := target.(*ast.Attr); ok {
					if _, isSelf := attr.Recv.(*ast.SelfRef); isSelf && attr.Field == cls.KeyAttr {
						c.errf(s.Pos(), "%s mutates key attribute self.%s; entity keys are immutable (§2.2)", m.QName(), attr.Field)
					}
				}
			})
		}
	}
}

// Package compiler implements the StateFlow compiler pipeline (§2.1): it
// parses a stateful-entity module, runs the static analysis passes (class
// metadata extraction and call-graph construction, both in
// internal/lang/types), applies the function-splitting transformation
// (split.go), derives per-method execution state machines, and emits the
// engine-independent dataflow IR (internal/ir).
package compiler

import (
	"fmt"
	"sort"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/lang/ast"
	"statefulentities.dev/stateflow/internal/lang/parser"
	"statefulentities.dev/stateflow/internal/lang/types"
)

// Compile runs the full pipeline over DSL source text.
func Compile(src string) (*ir.Program, error) {
	mod, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(mod)
	if err != nil {
		return nil, err
	}
	prog, err := CompileChecked(info)
	if err != nil {
		return nil, err
	}
	prog.Source = src
	return prog, nil
}

// MustCompile is Compile that panics on error, for tests and examples.
func MustCompile(src string) *ir.Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileChecked lowers a type-checked module to IR.
func CompileChecked(info *types.Info) (*ir.Program, error) {
	for _, name := range info.Order {
		cls := info.Classes[name]
		if !cls.Entity {
			return nil, &Error{Pos: cls.Def.Pos(), Msg: fmt.Sprintf(
				"class %s is not an entity; annotate it with @entity to compile it into a dataflow operator", name)}
		}
	}
	needs := computeNeedsSplit(info)
	ro := computeReadOnly(info)

	prog := &ir.Program{Operators: map[string]*ir.Operator{}}
	for _, name := range info.Order {
		cls := info.Classes[name]
		op, err := compileClass(info, needs, ro, cls)
		if err != nil {
			return nil, err
		}
		prog.Operators[name] = op
		prog.OperatorOrder = append(prog.OperatorOrder, name)
	}
	prog.Edges = buildEdges(prog)
	computeLayouts(prog)
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// computeNeedsSplit decides, transitively, which methods must be split: a
// method needs splitting if it contains a call that leaves the operator
// (remote call or constructor) or a self-call to a method that needs
// splitting. Terminates because recursion is rejected by the checker.
func computeNeedsSplit(info *types.Info) map[string]bool {
	needs := map[string]bool{}
	selfCalls := map[string][]string{} // qualified -> self-callee qualified
	for _, cn := range info.Order {
		cls := info.Classes[cn]
		for _, mn := range cls.MethodOrder {
			m := cls.Methods[mn]
			q := m.QName()
			ast.WalkStmts(m.Def.Body, func(s ast.Stmt) {
				for _, e := range ast.ExprsOf(s) {
					ast.WalkExpr(e, func(x ast.Expr) bool {
						call, ok := x.(*ast.Call)
						if !ok {
							return true
						}
						tgt, resolved := info.Calls[call]
						if !resolved {
							return true
						}
						if tgt.Ctor || tgt.Remote {
							needs[q] = true
						} else {
							selfCalls[q] = append(selfCalls[q], tgt.Class+"."+tgt.Method)
						}
						return true
					})
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for q, callees := range selfCalls {
			if needs[q] {
				continue
			}
			for _, c := range callees {
				if needs[c] {
					needs[q] = true
					changed = true
					break
				}
			}
		}
	}
	return needs
}

// mutators are the container methods that change their receiver in place.
// The language has only list append and pop today; the rest are listed so
// the read-only rule stays sound if the type checker grows them.
var mutators = map[string]bool{
	"append": true, "pop": true, "extend": true, "insert": true, "remove": true,
	"clear": true, "update": true, "setdefault": true, "popitem": true,
	"sort": true, "reverse": true,
}

// computeReadOnly decides, transitively, which methods never write entity
// state. The StateFlow runtime serves a read-only simple method outside the
// epochs, so the rule must be sound, and it is conservative: a method
// writes if it assigns a self attribute or any subscript, calls a container
// mutator on any receiver (a local may alias a state container), constructs
// an entity, or calls a method (locally or remotely) that writes.
func computeReadOnly(info *types.Info) map[string]bool {
	writes := map[string]bool{}
	calls := map[string][]string{}
	for _, cn := range info.Order {
		cls := info.Classes[cn]
		for _, mn := range cls.MethodOrder {
			m := cls.Methods[mn]
			q := m.QName()
			ast.WalkStmts(m.Def.Body, func(s ast.Stmt) {
				var target ast.Expr
				switch st := s.(type) {
				case *ast.AssignStmt:
					target = st.Target
				case *ast.AugAssignStmt:
					target = st.Target
				}
				switch t := target.(type) {
				case *ast.Attr:
					if _, isSelf := t.Recv.(*ast.SelfRef); isSelf {
						writes[q] = true
					}
				case *ast.Index:
					writes[q] = true
				}
				for _, e := range ast.ExprsOf(s) {
					ast.WalkExpr(e, func(x ast.Expr) bool {
						call, ok := x.(*ast.Call)
						if !ok {
							return true
						}
						switch tgt, resolved := info.Calls[call]; {
						case !resolved:
							if call.Recv != nil && mutators[call.Func] {
								writes[q] = true
							}
						case tgt.Ctor:
							writes[q] = true // creates state
						default:
							calls[q] = append(calls[q], tgt.Class+"."+tgt.Method)
						}
						return true
					})
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for q, callees := range calls {
			if writes[q] {
				continue
			}
			for _, c := range callees {
				if writes[c] {
					writes[q] = true
					changed = true
					break
				}
			}
		}
	}
	ro := map[string]bool{}
	for _, cn := range info.Order {
		cls := info.Classes[cn]
		for _, mn := range cls.MethodOrder {
			q := cls.Methods[mn].QName()
			ro[q] = !writes[q]
		}
	}
	return ro
}

func typeRef(t *types.Type) ir.TypeRef {
	if t == nil {
		return ir.TypeRef{Name: "None"}
	}
	switch t.Kind {
	case types.KInt:
		return ir.TypeRef{Name: "int"}
	case types.KFloat:
		return ir.TypeRef{Name: "float"}
	case types.KStr:
		return ir.TypeRef{Name: "str"}
	case types.KBool:
		return ir.TypeRef{Name: "bool"}
	case types.KNone:
		return ir.TypeRef{Name: "None"}
	case types.KAny:
		return ir.TypeRef{Name: "any"}
	case types.KList:
		return ir.TypeRef{Name: "list", Args: []ir.TypeRef{typeRef(t.Elem)}}
	case types.KDict:
		return ir.TypeRef{Name: "dict", Args: []ir.TypeRef{typeRef(t.Key), typeRef(t.Elem)}}
	case types.KEntity:
		return ir.TypeRef{Name: t.Entity, Entity: true}
	default:
		return ir.TypeRef{Name: "invalid"}
	}
}

func compileClass(info *types.Info, needs, ro map[string]bool, cls *types.Class) (*ir.Operator, error) {
	op := &ir.Operator{
		Name:    cls.Name,
		KeyAttr: cls.KeyAttr,
		Methods: map[string]*ir.Method{},
	}
	for _, a := range cls.Attrs {
		op.Attrs = append(op.Attrs, ir.Field{Name: a.Name, Type: typeRef(a.Type)})
	}
	init := cls.Methods["__init__"]
	if needs[init.QName()] {
		return nil, &Error{Pos: init.Def.Pos(), Msg: fmt.Sprintf(
			"%s.__init__ must not perform remote calls", cls.Name)}
	}
	keyParam, err := findKeyParam(cls, init)
	if err != nil {
		return nil, err
	}
	op.KeyParam = keyParam

	for _, mn := range cls.MethodOrder {
		m := cls.Methods[mn]
		im := &ir.Method{
			Name:          m.Name,
			Returns:       typeRef(m.Returns),
			Transactional: m.Transactional,
			ReadOnly:      ro[m.QName()],
			Body:          m.Def.Body,
		}
		for _, p := range m.Params {
			im.Params = append(im.Params, ir.Field{Name: p.Name, Type: typeRef(p.Type)})
		}
		if needs[m.QName()] {
			blocks, err := splitMethod(info, needs, m)
			if err != nil {
				return nil, err
			}
			im.Blocks = blocks
		} else {
			im.Simple = true
			b := &ir.Block{ID: 0, Name: m.Name + "_0", Stmts: m.Def.Body, Term: ir.Return{}}
			im.Blocks = []*ir.Block{b}
			computeDefUse(im.Blocks)
		}
		im.SM = ir.BuildStateMachine(im.Blocks)
		op.Methods[mn] = im
		op.MethodOrder = append(op.MethodOrder, mn)
	}
	return op, nil
}

// findKeyParam locates the __init__ parameter that directly initializes the
// key attribute. The routing layer needs it to partition constructor calls
// before the entity exists (§2.2/§2.3).
func findKeyParam(cls *types.Class, init *types.Method) (string, error) {
	if cls.KeyAttr == "" {
		return "", &Error{Pos: cls.Def.Pos(), Msg: fmt.Sprintf("entity %s has no key attribute", cls.Name)}
	}
	for _, s := range init.Def.Body {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		attr, ok := as.Target.(*ast.Attr)
		if !ok || attr.Field != cls.KeyAttr {
			continue
		}
		if name, ok := as.Value.(*ast.Name); ok {
			if _, isParam := init.Param(name.Ident); isParam {
				return name.Ident, nil
			}
		}
		return "", &Error{Pos: as.Pos(), Msg: fmt.Sprintf(
			"%s.__init__ must assign the key attribute self.%s directly from a parameter so constructor calls can be routed", cls.Name, cls.KeyAttr)}
	}
	return "", &Error{Pos: init.Def.Pos(), Msg: fmt.Sprintf(
		"%s.__init__ never assigns the key attribute self.%s", cls.Name, cls.KeyAttr)}
}

// buildEdges assembles the logical dataflow graph (Figure 2): the ingress
// router fans out to every operator, every operator reaches the egress
// router, and each cross-operator call adds an operator-to-operator edge.
func buildEdges(prog *ir.Program) []ir.Edge {
	var edges []ir.Edge
	seen := map[string]bool{}
	add := func(e ir.Edge) {
		k := e.From + "\x00" + e.To + "\x00" + e.Label
		if !seen[k] {
			seen[k] = true
			edges = append(edges, e)
		}
	}
	for _, name := range prog.OperatorOrder {
		add(ir.Edge{From: "ingress", To: name})
		add(ir.Edge{From: name, To: "egress"})
	}
	for _, name := range prog.OperatorOrder {
		op := prog.Operators[name]
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			for _, b := range m.Blocks {
				if inv, ok := b.Term.(ir.Invoke); ok && inv.Class != name {
					add(ir.Edge{From: name, To: inv.Class,
						Label: fmt.Sprintf("%s.%s -> %s.%s", name, mn, inv.Class, inv.Method)})
				}
			}
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Label < edges[j].Label
	})
	return edges
}

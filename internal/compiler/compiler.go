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
	return CompileChecked(info)
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
	sums := summarise(info)
	stampSelfCalls(info)
	prog := &ir.Program{Operators: map[string]*ir.Operator{}}
	for _, name := range info.Order {
		cls := info.Classes[name]
		op, err := compileClass(info, sums, cls)
		if err != nil {
			return nil, err
		}
		prog.Operators[name] = op
		prog.OperatorOrder = append(prog.OperatorOrder, name)
		for _, mn := range op.MethodOrder {
			prog.Methods = append(prog.Methods, op.Methods[mn])
		}
	}
	markSplitBits(info, prog)
	prog.Edges = buildEdges(prog)
	computeLayouts(prog)
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// stampSelfCalls stamps every self-call with its callee's 1-based index in
// ir.Program.Methods, which lists the methods in the order the checker
// declared them. It runs before splitting, so the calls the splitter
// rewrites carry the stamp along; the splitter hoists the self-calls to
// methods that split, and the interpreter runs the rest inline.
func stampSelfCalls(info *types.Info) {
	index := map[string]int{}
	for _, cn := range info.Order {
		for _, mn := range info.Classes[cn].MethodOrder {
			index[cn+"."+mn] = len(index) + 1
		}
	}
	for call, tgt := range info.Calls {
		if !tgt.Remote && !tgt.Ctor {
			call.Callee = index[tgt.Class+"."+tgt.Method]
		}
	}
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

func compileClass(info *types.Info, sums map[string]summary, cls *types.Class) (*ir.Operator, error) {
	op := &ir.Operator{
		Name:    cls.Name,
		KeyAttr: cls.KeyAttr,
		Methods: map[string]*ir.Method{},
	}
	for _, a := range cls.Attrs {
		op.Attrs = append(op.Attrs, ir.Field{Name: a.Name, Type: typeRef(a.Type)})
	}
	init := cls.Methods["__init__"]
	if sums[init.QName()].split {
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
		sum := sums[m.QName()]
		im := &ir.Method{
			Name:          m.Name,
			Returns:       typeRef(m.Returns),
			Transactional: m.Transactional,
			ReadOnly:      !sum.writes,
			Body:          m.Def.Body,
		}
		for _, p := range m.Params {
			im.Params = append(im.Params, ir.Field{Name: p.Name, Type: typeRef(p.Type)})
		}
		if sum.split {
			blocks, err := splitMethod(info, sums, m)
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

// Package ir defines the intermediate representation of the StateFlow
// compiler (§2.5 of the paper): a stateful dataflow graph whose operators
// correspond to entity classes, enriched with the compiled classes (method
// signatures and bodies), the split-function blocks produced by the CPS
// transformation (§2.4), and the execution state machine that tracks the
// stage of every in-flight function invocation.
//
// The IR is independent of the target execution engine. The runtime
// packages (systems/stateflow, systems/statefun, runtime/local) all consume
// this representation unchanged, which is what makes compiled applications
// portable across engines (§3).
package ir

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"statefulentities.dev/stateflow/internal/lang/ast"
)

// TypeRef is an engine-independent type reference, the serialized form of
// a checked types.Type.
type TypeRef struct {
	Name   string    `json:"name"`             // int, float, str, bool, None, list, dict, or a class name
	Entity bool      `json:"entity,omitempty"` // Name is an entity class
	Args   []TypeRef `json:"args,omitempty"`   // list/dict element types
}

// String renders the type reference in annotation syntax.
func (t TypeRef) String() string {
	if len(t.Args) == 0 {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s[%s]", t.Name, strings.Join(parts, ", "))
}

// Field is a named, typed slot (attribute or parameter).
type Field struct {
	Name string  `json:"name"`
	Type TypeRef `json:"type"`
}

// ---------------------------------------------------------------------------
// Blocks and terminators (the split functions of §2.4)

// BlockID identifies a block within a method. The entry block is always 0.
type BlockID int

// NoBlock is the nil block id.
const NoBlock BlockID = -1

// Block is one split function: a straight-line sequence of statements
// (local control flow that contains no remote calls stays inline) plus a
// terminator describing how control leaves the block.
type Block struct {
	ID   BlockID `json:"id"`
	Name string  `json:"name"` // e.g. buy_item_0
	// Params are the variables the block references that must be live on
	// entry ("each function takes as arguments the variables it references
	// in its body", §2.4).
	Params []string `json:"params"`
	// Defines are the variables the block defines ("returns the variables
	// it defines", §2.4).
	Defines []string `json:"defines"`
	// LiveOut is the set of variables that must be carried to successor
	// blocks.
	LiveOut []string `json:"live_out"`
	// LiveOutSlots are LiveOut's 0-based frame slots, position for
	// position, stamped by the compiler's layout pass: a suspending frame
	// keeps these slots and drops the rest.
	LiveOutSlots []int `json:"-"`
	// StateFree marks a continuation (an Invoke's resume block) that reads
	// no entity state: it ends in a Return, and neither its statements nor
	// its return value mention self or write a container. It needs nothing
	// but its frame, so the runtime runs it where the call it waited on
	// returns instead of sending the value back to the caller's operator
	// (core.complete).
	StateFree bool `json:"state_free,omitempty"`
	// Stmts is the straight-line body, executed by the interpreter.
	Stmts []ast.Stmt `json:"-"`
	// Term describes how the block ends.
	Term Terminator `json:"-"`
}

// Terminator is how control leaves a block.
type Terminator interface {
	termKind() string
	// Successors lists the blocks control may transfer to locally.
	Successors() []BlockID
}

// Return ends the method, yielding Value (nil means None).
type Return struct {
	Value ast.Expr
}

// Jump transfers control unconditionally to another block.
type Jump struct {
	To BlockID
}

// Branch evaluates Cond and transfers to True or False.
type Branch struct {
	Cond  ast.Expr
	True  BlockID
	False BlockID
}

// Invoke suspends the method, sends an invocation event to another entity
// (possibly on a remote partition), and resumes at To when the return-value
// event arrives (§2.4's continuation).
type Invoke struct {
	// Recv is the expression evaluating to the target entity reference;
	// nil for constructor calls.
	Recv     ast.Expr
	Class    string
	Method   string
	Args     []ast.Expr
	AssignTo string // variable receiving the return value; "" discards it
	// Result is AssignTo's 1-based frame slot, stamped by the compiler's
	// layout pass (0 discards the value): the resume writes the returned
	// value there.
	Result int
	To     BlockID
}

func (Return) termKind() string { return "return" }
func (Jump) termKind() string   { return "jump" }
func (Branch) termKind() string { return "branch" }
func (Invoke) termKind() string { return "invoke" }

// Successors implements Terminator.
func (Return) Successors() []BlockID { return nil }

// Successors implements Terminator.
func (j Jump) Successors() []BlockID { return []BlockID{j.To} }

// Successors implements Terminator.
func (b Branch) Successors() []BlockID { return []BlockID{b.True, b.False} }

// Successors implements Terminator.
func (i Invoke) Successors() []BlockID { return []BlockID{i.To} }

// ---------------------------------------------------------------------------
// State machine (§2.5)

// TransitionKind enumerates state-machine transition labels.
type TransitionKind string

// Transition kinds.
const (
	TransDirect    TransitionKind = "direct"
	TransCondTrue  TransitionKind = "cond_true"
	TransCondFalse TransitionKind = "cond_false"
	TransCall      TransitionKind = "call"   // suspend: event leaves the operator
	TransResume    TransitionKind = "resume" // return value arrives back
	TransReturn    TransitionKind = "return" // method completes
)

// Transition is one arc of the execution state machine.
type Transition struct {
	Kind   TransitionKind `json:"kind"`
	From   BlockID        `json:"from"`
	To     BlockID        `json:"to"` // NoBlock for return
	Callee string         `json:"callee,omitempty"`
}

// StateMachine is the unrolled execution graph of one split method: states
// are blocks, arcs are transitions. It is derived mechanically from the
// blocks and embedded in invocation events so the runtime can track the
// execution stage of each in-flight call (§2.5).
type StateMachine struct {
	Entry       BlockID      `json:"entry"`
	States      []BlockID    `json:"states"`
	Transitions []Transition `json:"transitions"`
}

// BuildStateMachine derives the state machine from split blocks.
func BuildStateMachine(blocks []*Block) *StateMachine {
	sm := &StateMachine{Entry: 0}
	for _, b := range blocks {
		sm.States = append(sm.States, b.ID)
		switch t := b.Term.(type) {
		case Return:
			sm.Transitions = append(sm.Transitions, Transition{Kind: TransReturn, From: b.ID, To: NoBlock})
		case Jump:
			sm.Transitions = append(sm.Transitions, Transition{Kind: TransDirect, From: b.ID, To: t.To})
		case Branch:
			sm.Transitions = append(sm.Transitions,
				Transition{Kind: TransCondTrue, From: b.ID, To: t.True},
				Transition{Kind: TransCondFalse, From: b.ID, To: t.False})
		case Invoke:
			callee := t.Class + "." + t.Method
			sm.Transitions = append(sm.Transitions,
				Transition{Kind: TransCall, From: b.ID, To: b.ID, Callee: callee},
				Transition{Kind: TransResume, From: b.ID, To: t.To, Callee: callee})
		}
	}
	return sm
}

// ---------------------------------------------------------------------------
// Methods, operators, program

// Method is a compiled entity method.
type Method struct {
	Name          string  `json:"name"`
	Params        []Field `json:"params"`
	Returns       TypeRef `json:"returns"`
	Transactional bool    `json:"transactional"`
	// Simple methods contain no remote calls and run to completion inside
	// one operator without suspension (§2.3 "for simple functions ... the
	// execution is straightforward").
	Simple bool `json:"simple"`
	// ReadOnly methods never write entity state: no attribute or subscript
	// assignment, no container mutator on any receiver, no construction,
	// and no call to a method that writes. The StateFlow runtime relaxes
	// concurrency control for a method that is ReadOnly and Simple (it
	// touches only its target): it serves the call against the owner's
	// committed store outside any epoch.
	ReadOnly bool `json:"read_only"`
	// RefClosed methods have an entity footprint their request names:
	// every entity the method (transitively) reaches is its target or an
	// entity reference passed as an argument, so a sharded router decides
	// from the request alone whether the call stays in one shard. Simple
	// methods are RefClosed; a constructor call never is.
	RefClosed bool          `json:"ref_closed"`
	Blocks    []*Block      `json:"blocks"`
	SM        *StateMachine `json:"state_machine"`
	// Frame is the method's static variable layout (parameters, locals and
	// splitter temporaries mapped to dense frame slots), stamped by the
	// compiler's layout pass.
	Frame *FrameLayout `json:"frame,omitempty"`
	// Body is the original (pre-split) body, used by Simple execution and
	// by the local runtime.
	Body []ast.Stmt `json:"-"`
}

// Block returns the block with the given id.
func (m *Method) Block(id BlockID) *Block {
	if int(id) < 0 || int(id) >= len(m.Blocks) {
		return nil
	}
	return m.Blocks[id]
}

// Operator is a dataflow operator hosting all functions and all state of
// one entity class (§2.3). Operators are partitioned by entity key at
// runtime.
type Operator struct {
	Name     string  `json:"name"` // class name
	KeyAttr  string  `json:"key_attr"`
	KeyParam string  `json:"key_param"` // __init__ parameter that carries the key
	Attrs    []Field `json:"attrs"`
	// Layout is the class's static attribute layout (attribute name to
	// dense slot index plus the program-wide class id), stamped by the
	// compiler's layout pass.
	Layout  *ClassLayout       `json:"layout,omitempty"`
	Methods map[string]*Method `json:"methods"`
	// MethodOrder preserves source declaration order for deterministic
	// output.
	MethodOrder []string `json:"method_order"`
}

// Method returns the named method, or nil.
func (o *Operator) Method(name string) *Method { return o.Methods[name] }

// Edge is a dataflow edge in the logical graph.
type Edge struct {
	From string `json:"from"` // "ingress", or operator name
	To   string `json:"to"`   // "egress", or operator name
	// Label describes why the edge exists (e.g. the call that induces it).
	Label string `json:"label,omitempty"`
}

// Program is the complete intermediate representation of a compiled
// application: the enriched stateful dataflow graph.
type Program struct {
	Operators map[string]*Operator `json:"operators"`
	// OperatorOrder preserves declaration order.
	OperatorOrder []string `json:"operator_order"`
	// Methods lists every method, operators in OperatorOrder and each
	// operator's methods in MethodOrder: an inline self-call's
	// ast.Call.Callee indexes it.
	Methods []*Method `json:"-"`
	// Edges is the logical dataflow graph including ingress/egress routers.
	Edges []Edge `json:"edges"`

	layoutsOnce sync.Once
	layouts     *Layouts
}

// Operator returns the named operator, or nil.
func (p *Program) Operator(name string) *Operator { return p.Operators[name] }

// MethodOf resolves class.method, or nil.
func (p *Program) MethodOf(class, method string) *Method {
	op := p.Operators[class]
	if op == nil {
		return nil
	}
	return op.Methods[method]
}

// RefClosed reports class.method's RefClosed; false for an unknown method.
func (p *Program) RefClosed(class, method string) bool {
	m := p.MethodOf(class, method)
	return m != nil && m.RefClosed
}

// Validate checks structural invariants of the IR: block ids are dense and
// ordered, terminators reference existing blocks, entry block exists, and
// every operator has a key attribute.
func (p *Program) Validate() error {
	for _, name := range p.OperatorOrder {
		op := p.Operators[name]
		if op == nil {
			return fmt.Errorf("ir: operator order references unknown operator %s", name)
		}
		if op.KeyAttr == "" {
			return fmt.Errorf("ir: operator %s has no key attribute", name)
		}
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			if m == nil {
				return fmt.Errorf("ir: %s method order references unknown method %s", name, mn)
			}
			if len(m.Blocks) == 0 {
				return fmt.Errorf("ir: %s.%s has no blocks", name, mn)
			}
			for i, b := range m.Blocks {
				if int(b.ID) != i {
					return fmt.Errorf("ir: %s.%s block %d has id %d", name, mn, i, b.ID)
				}
				if b.Term == nil {
					return fmt.Errorf("ir: %s.%s block %d lacks a terminator", name, mn, i)
				}
				for _, s := range b.Term.Successors() {
					if int(s) < 0 || int(s) >= len(m.Blocks) {
						return fmt.Errorf("ir: %s.%s block %d jumps to missing block %d", name, mn, i, s)
					}
				}
				if inv, ok := b.Term.(Invoke); ok {
					if p.MethodOf(inv.Class, inv.Method) == nil {
						return fmt.Errorf("ir: %s.%s block %d invokes unknown %s.%s", name, mn, i, inv.Class, inv.Method)
					}
				}
			}
			if m.SM == nil {
				return fmt.Errorf("ir: %s.%s lacks a state machine", name, mn)
			}
		}
	}
	return nil
}

// Stats summarizes the IR for reports and the overhead experiment.
type Stats struct {
	Operators     int
	Methods       int
	SimpleMethods int
	SplitMethods  int
	Blocks        int
	Transitions   int
	Edges         int
	// InPlaceBlocks counts the StateFree continuations: resumes that never
	// travel back to their caller's operator.
	InPlaceBlocks int
}

// Stats computes summary statistics.
func (p *Program) Stats() Stats {
	var st Stats
	st.Operators = len(p.OperatorOrder)
	st.Edges = len(p.Edges)
	for _, name := range p.OperatorOrder {
		op := p.Operators[name]
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			st.Methods++
			if m.Simple {
				st.SimpleMethods++
			} else {
				st.SplitMethods++
			}
			st.Blocks += len(m.Blocks)
			st.Transitions += len(m.SM.Transitions)
			for _, b := range m.Blocks {
				if b.StateFree {
					st.InPlaceBlocks++
				}
			}
		}
	}
	return st
}

// Dot renders the logical dataflow graph (Figure 2) in Graphviz DOT syntax.
func (p *Program) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph dataflow {\n  rankdir=LR;\n")
	sb.WriteString("  ingress [shape=cds,label=\"ingress router\"];\n")
	sb.WriteString("  egress [shape=cds,label=\"egress router\"];\n")
	for _, name := range p.OperatorOrder {
		op := p.Operators[name]
		var fns []string
		for _, mn := range op.MethodOrder {
			if strings.HasPrefix(mn, "__") {
				continue
			}
			fns = append(fns, fmt.Sprintf("%s/%d", mn, len(op.Methods[mn].Blocks)))
		}
		sb.WriteString(fmt.Sprintf("  %q [shape=box,label=\"%s\\nkey=%s\\n%s\"];\n",
			name, name, op.KeyAttr, strings.Join(fns, "\\n")))
	}
	edges := append([]Edge(nil), p.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Label < edges[j].Label
	})
	for _, e := range edges {
		if e.Label != "" {
			sb.WriteString(fmt.Sprintf("  %q -> %q [label=%q];\n", e.From, e.To, e.Label))
		} else {
			sb.WriteString(fmt.Sprintf("  %q -> %q;\n", e.From, e.To))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Human-readable listings of the IR: split-function listings like the
// paper's §2.4 examples, terminator descriptions, and a whole-program
// report used by the stateflowc CLI.
package ir

import (
	"fmt"
	"strings"

	"statefulentities.dev/stateflow/internal/lang/printer"
)

// TermString describes a terminator in listing syntax.
func TermString(t Terminator) string {
	switch x := t.(type) {
	case Return:
		if x.Value == nil {
			return "return None"
		}
		return "return " + printer.Expr(x.Value)
	case Jump:
		return fmt.Sprintf("jump -> block %d", x.To)
	case Branch:
		return fmt.Sprintf("branch %s ? block %d : block %d", printer.Expr(x.Cond), x.True, x.False)
	case Invoke:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = printer.Expr(a)
		}
		recv := x.Class
		if x.Recv != nil {
			recv = printer.Expr(x.Recv)
		}
		assign := ""
		if x.AssignTo != "" {
			assign = x.AssignTo + " = "
		}
		return fmt.Sprintf("%sinvoke %s.%s(%s) {\"_type\": \"InvokeMethod\"} -> resume block %d",
			assign, recv, x.Method, strings.Join(args, ", "), x.To)
	default:
		return fmt.Sprintf("<%T>", t)
	}
}

// Listing renders a method's split functions the way §2.4 presents them:
// one definition per block, with the parameters it references and the
// variables it defines.
func (m *Method) Listing() string {
	var sb strings.Builder
	for _, b := range m.Blocks {
		fmt.Fprintf(&sb, "def %s(%s):  # defines: %s; live-out: %s\n",
			b.Name, strings.Join(b.Params, ", "),
			strings.Join(b.Defines, ", "), strings.Join(b.LiveOut, ", "))
		body := printer.Stmts(b.Stmts, "    ")
		if body == "" {
			body = "    pass\n"
		}
		sb.WriteString(body)
		fmt.Fprintf(&sb, "    # %s\n", TermString(b.Term))
		if b.StateFree {
			sb.WriteString("    # runs in place: reads no state\n")
		}
	}
	return sb.String()
}

// Report renders the whole program: operators, methods, blocks, state
// machines and the dataflow edges.
func (p *Program) Report() string {
	var sb strings.Builder
	st := p.Stats()
	fmt.Fprintf(&sb, "program: %d operators, %d methods (%d split / %d simple), %d blocks (%d run in place), %d transitions, %d edges\n\n",
		st.Operators, st.Methods, st.SplitMethods, st.SimpleMethods, st.Blocks, st.InPlaceBlocks, st.Transitions, st.Edges)
	for _, name := range p.OperatorOrder {
		op := p.Operators[name]
		fmt.Fprintf(&sb, "operator %s (key: %s)\n", name, op.KeyAttr)
		for _, a := range op.Attrs {
			fmt.Fprintf(&sb, "  state %s: %s\n", a.Name, a.Type)
		}
		for _, mn := range op.MethodOrder {
			m := op.Methods[mn]
			kind := "split"
			if m.Simple {
				kind = "simple"
			}
			if m.RefClosed {
				kind += ", ref-closed"
			}
			ro := ""
			if m.ReadOnly {
				ro = ", read-only"
			}
			tx := ""
			if m.Transactional {
				tx = ", @transactional"
			}
			inPlace := ""
			for _, b := range m.Blocks {
				if b.StateFree {
					inPlace += fmt.Sprintf(", %s runs in place", b.Name)
				}
			}
			fmt.Fprintf(&sb, "  method %s/%d -> %s (%s%s%s; %d blocks, %d transitions%s)\n",
				mn, len(m.Params), m.Returns, kind, ro, tx, len(m.Blocks), len(m.SM.Transitions), inPlace)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

package types

import "fmt"

// The language's builtin functions and container methods, one entry each
// in Builtins. The checker resolves every call that names no entity method
// against this table and stamps the entry on the ast.Call; the compiler's
// effect pass reads Mutates; the interpreter runs the implementation it
// keeps at the entry's index. Method names are unique across receiver
// kinds, so a call on a receiver of unknown type resolves by name alone.

// Builtin IDs: each entry's 0-based index in Builtins.
const (
	FnLen = iota
	FnStr
	FnInt
	FnFloat
	FnBool
	FnAbs
	FnMin
	FnMax
	FnRange
	ListAppend
	ListPop
	DictGet
	DictKeys
	DictValues
	StrUpper
	StrLower
	StrStrip
)

// Builtin is one builtin function or container method.
type Builtin struct {
	Recv     Kind // KList, KDict or KStr for a method; KInvalid for a function
	Name     string
	Min, Max int  // arity bounds; Max < 0 takes any number from Min up
	Mutates  bool // changes its receiver in place
	// Type checks the argument types, given the receiver's type (nil for a
	// function, Any when unknown), and returns the result type, or a
	// message saying why the arguments do not fit.
	Type func(recv *Type, args []*Type) (*Type, string)
}

// Builtins is the builtin table.
var Builtins = [...]Builtin{
	FnLen:      {Name: "len", Min: 1, Max: 1, Type: lenType},
	FnStr:      {Name: "str", Min: 1, Max: 1, Type: returns(Str)},
	FnInt:      {Name: "int", Min: 1, Max: 1, Type: returns(Int)},
	FnFloat:    {Name: "float", Min: 1, Max: 1, Type: returns(Float)},
	FnBool:     {Name: "bool", Min: 1, Max: 1, Type: returns(Bool)},
	FnAbs:      {Name: "abs", Min: 1, Max: 1, Type: absType},
	FnMin:      {Name: "min", Min: 2, Max: -1, Type: extremumType},
	FnMax:      {Name: "max", Min: 2, Max: -1, Type: extremumType},
	FnRange:    {Name: "range", Min: 1, Max: 2, Type: rangeType},
	ListAppend: {Recv: KList, Name: "append", Min: 1, Max: 1, Mutates: true, Type: appendType},
	ListPop:    {Recv: KList, Name: "pop", Min: 0, Max: 1, Mutates: true, Type: popType},
	DictGet:    {Recv: KDict, Name: "get", Min: 2, Max: 2, Type: getType},
	DictKeys:   {Recv: KDict, Name: "keys", Type: func(r *Type, _ []*Type) (*Type, string) { return ListOf(keyOf(r)), "" }},
	DictValues: {Recv: KDict, Name: "values", Type: func(r *Type, _ []*Type) (*Type, string) { return ListOf(elemOf(r)), "" }},
	StrUpper:   {Recv: KStr, Name: "upper", Type: returns(Str)},
	StrLower:   {Recv: KStr, Name: "lower", Type: returns(Str)},
	StrStrip:   {Recv: KStr, Name: "strip", Type: returns(Str)},
}

// lookupBuiltin returns the ID of the builtin a call names: a function
// when recv is nil, else a method of recv's kind (of any kind when recv is
// Any). ok is false when no entry matches.
func lookupBuiltin(recv *Type, name string) (id int, ok bool) {
	for i, b := range Builtins {
		if b.Name != name || (recv == nil) != (b.Recv == KInvalid) {
			continue
		}
		if recv == nil || recv.Kind == KAny || recv.Kind == b.Recv {
			return i, true
		}
	}
	return 0, false
}

// arity describes the number of arguments the builtin takes.
func (b *Builtin) arity() string {
	switch {
	case b.Max == 0:
		return "takes no arguments"
	case b.Max < 0:
		return fmt.Sprintf("requires at least %d arguments", b.Min)
	case b.Min == b.Max:
		return fmt.Sprintf("expects %d argument(s)", b.Min)
	}
	return fmt.Sprintf("expects %d to %d arguments", b.Min, b.Max)
}

func returns(t *Type) func(*Type, []*Type) (*Type, string) {
	return func(*Type, []*Type) (*Type, string) { return t, "" }
}

// elemOf and keyOf are a container's element and key types; a receiver of
// unknown type has elements and keys of unknown type.
func elemOf(t *Type) *Type {
	if t.Kind == KAny {
		return Any
	}
	return t.Elem
}

func keyOf(t *Type) *Type {
	if t.Kind == KAny {
		return Any
	}
	return t.Key
}

func lenType(_ *Type, args []*Type) (*Type, string) {
	switch args[0].Kind {
	case KList, KDict, KStr, KAny:
		return Int, ""
	}
	return nil, fmt.Sprintf("needs a list, dict or str, got %s", args[0])
}

func absType(_ *Type, args []*Type) (*Type, string) {
	if !args[0].IsNumeric() && args[0].Kind != KAny {
		return nil, fmt.Sprintf("needs a number, got %s", args[0])
	}
	return args[0], ""
}

// extremumType admits numbers or strs, not both: min and max compare
// their arguments, and only these compare. Mixed int and float arguments
// make a float, since either may be the result.
func extremumType(_ *Type, args []*Type) (*Type, string) {
	var num, str, unknown, float bool
	for _, a := range args {
		switch a.Kind {
		case KInt:
			num = true
		case KFloat:
			num, float = true, true
		case KStr:
			str = true
		case KAny:
			unknown = true
		default:
			return nil, fmt.Sprintf("cannot compare %s", a)
		}
	}
	switch {
	case num && str:
		return nil, "cannot compare numbers with str"
	case unknown:
		return Any, ""
	case str:
		return Str, ""
	case float:
		return Float, ""
	}
	return Int, ""
}

func rangeType(_ *Type, args []*Type) (*Type, string) {
	for _, a := range args {
		if a.Kind != KInt && a.Kind != KAny {
			return nil, fmt.Sprintf("needs int arguments, got %s", a)
		}
	}
	return ListOf(Int), ""
}

// appendType keeps a list's elements of its element type: in particular
// no entity reference enters a list of unknown element type, whence it
// could reach state (§2.2).
func appendType(recv *Type, args []*Type) (*Type, string) {
	if !args[0].AssignableTo(elemOf(recv)) {
		return nil, fmt.Sprintf("cannot append %s to %s", args[0], recv)
	}
	return None, ""
}

func popType(recv *Type, args []*Type) (*Type, string) {
	if len(args) == 1 && args[0].Kind != KInt && args[0].Kind != KAny {
		return nil, fmt.Sprintf("index must be int, got %s", args[0])
	}
	return elemOf(recv), ""
}

func getType(recv *Type, args []*Type) (*Type, string) {
	if !args[0].AssignableTo(keyOf(recv)) {
		return nil, fmt.Sprintf("key must be %s, got %s", keyOf(recv), args[0])
	}
	if !args[1].AssignableTo(elemOf(recv)) {
		return nil, fmt.Sprintf("default must be %s, got %s", elemOf(recv), args[1])
	}
	return elemOf(recv), ""
}

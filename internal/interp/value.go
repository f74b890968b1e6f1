// Package interp implements the runtime value model and the tree-walking
// interpreter that executes split-function blocks against an entity's
// state. Every runtime (local, StateFlow, StateFun-model) executes entity
// code through this package, mirroring how the paper's Python runtimes
// reconstruct an object from operator state and run a method (§2.3).
package interp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds.
type Kind int

// Value kinds.
const (
	KNone Kind = iota
	KInt
	KFloat
	KStr
	KBool
	KList
	KDict
	KRef // reference to a stateful entity (class + key)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KNone:
		return "None"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "str"
	case KBool:
		return "bool"
	case KList:
		return "list"
	case KDict:
		return "dict"
	case KRef:
		return "entity"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// EntityRef identifies a stateful entity instance: the operator (class)
// plus the partition key.
type EntityRef struct {
	Class string
	Key   string
}

// String renders the reference.
func (r EntityRef) String() string { return r.Class + "<" + r.Key + ">" }

// List is the shared backing store of a list value. Lists have reference
// semantics like Python: assigning a list to another variable aliases the
// same storage.
type List struct {
	Elems []Value
}

// Value is a DSL runtime value. The zero Value is None.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	L    *List
	// D holds dict entries keyed by the encoded key (see dictKey); DK
	// remembers each original key value. Maps give dicts reference
	// semantics.
	D  map[string]Value
	DK map[string]Value
	R  EntityRef
}

// Constructors.
var None = Value{Kind: KNone}

// IntV builds an int value.
func IntV(i int64) Value { return Value{Kind: KInt, I: i} }

// FloatV builds a float value.
func FloatV(f float64) Value { return Value{Kind: KFloat, F: f} }

// StrV builds a str value.
func StrV(s string) Value { return Value{Kind: KStr, S: s} }

// BoolV builds a bool value.
func BoolV(b bool) Value { return Value{Kind: KBool, B: b} }

// ListV builds a list value (the slice is owned by the value).
func ListV(elems ...Value) Value {
	if elems == nil {
		elems = []Value{}
	}
	return Value{Kind: KList, L: &List{Elems: elems}}
}

// DictV builds an empty dict value.
func DictV() Value {
	return Value{Kind: KDict, D: map[string]Value{}, DK: map[string]Value{}}
}

// RefV builds an entity reference.
func RefV(class, key string) Value {
	return Value{Kind: KRef, R: EntityRef{Class: class, Key: key}}
}

// dictKey encodes a value as a dict key. Only scalars are hashable.
func dictKey(v Value) (string, error) {
	switch v.Kind {
	case KInt:
		return "i:" + strconv.FormatInt(v.I, 10), nil
	case KStr:
		return "s:" + v.S, nil
	case KBool:
		if v.B {
			return "b:1", nil
		}
		return "b:0", nil
	case KFloat:
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64), nil
	default:
		return "", fmt.Errorf("unhashable dict key of type %s", v.Kind)
	}
}

// DictSet inserts k -> val into a dict value.
func (v *Value) DictSet(k, val Value) error {
	if v.Kind != KDict {
		return fmt.Errorf("not a dict")
	}
	dk, err := dictKey(k)
	if err != nil {
		return err
	}
	v.D[dk] = val
	v.DK[dk] = k
	return nil
}

// DictGet fetches the value for key k.
func (v Value) DictGet(k Value) (Value, bool, error) {
	if v.Kind != KDict {
		return None, false, fmt.Errorf("not a dict")
	}
	dk, err := dictKey(k)
	if err != nil {
		return None, false, err
	}
	val, ok := v.D[dk]
	return val, ok, nil
}

// DictKeys returns dict keys in deterministic (sorted) order.
func (v Value) DictKeys() []Value {
	keys := make([]string, 0, len(v.DK))
	for k := range v.DK {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = v.DK[k]
	}
	return out
}

// IsTruthy converts to a boolean following Python rules.
func (v Value) IsTruthy() bool {
	switch v.Kind {
	case KNone:
		return false
	case KInt:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KStr:
		return v.S != ""
	case KBool:
		return v.B
	case KList:
		return v.L != nil && len(v.L.Elems) > 0
	case KDict:
		return len(v.D) > 0
	case KRef:
		return true
	}
	return false
}

// AsFloat widens int to float.
func (v Value) AsFloat() float64 {
	if v.Kind == KInt {
		return float64(v.I)
	}
	return v.F
}

// Equal implements DSL equality (== / !=). Int and float compare
// numerically.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		if v.Kind == KInt && o.Kind == KFloat || v.Kind == KFloat && o.Kind == KInt {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.Kind {
	case KNone:
		return true
	case KInt:
		return v.I == o.I
	case KFloat:
		return v.F == o.F
	case KStr:
		return v.S == o.S
	case KBool:
		return v.B == o.B
	case KRef:
		return v.R == o.R
	case KList:
		if len(v.L.Elems) != len(o.L.Elems) {
			return false
		}
		for i := range v.L.Elems {
			if !v.L.Elems[i].Equal(o.L.Elems[i]) {
				return false
			}
		}
		return true
	case KDict:
		if len(v.D) != len(o.D) {
			return false
		}
		for k, val := range v.D {
			ov, ok := o.D[k]
			if !ok || !val.Equal(ov) {
				return false
			}
		}
		return true
	}
	return false
}

// Clone deep-copies the value. Containers are copied; scalars are cheap.
func (v Value) Clone() Value {
	switch v.Kind {
	case KList:
		l := make([]Value, len(v.L.Elems))
		for i, e := range v.L.Elems {
			l[i] = e.Clone()
		}
		return Value{Kind: KList, L: &List{Elems: l}}
	case KDict:
		d := make(map[string]Value, len(v.D))
		dk := make(map[string]Value, len(v.DK))
		for k, e := range v.D {
			d[k] = e.Clone()
		}
		for k, e := range v.DK {
			dk[k] = e
		}
		return Value{Kind: KDict, D: d, DK: dk}
	default:
		return v
	}
}

// String renders the value in Python-ish syntax.
func (v Value) String() string {
	switch v.Kind {
	case KNone:
		return "None"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KStr:
		return v.S
	case KBool:
		if v.B {
			return "True"
		}
		return "False"
	case KList:
		parts := make([]string, len(v.L.Elems))
		for i, e := range v.L.Elems {
			parts[i] = e.Repr()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KDict:
		keys := v.DictKeys()
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			val, _, _ := v.DictGet(k)
			parts = append(parts, k.Repr()+": "+val.Repr())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KRef:
		return v.R.String()
	}
	return "<invalid>"
}

// Repr is String but with strings quoted, as inside containers.
func (v Value) Repr() string {
	if v.Kind == KStr {
		return strconv.Quote(v.S)
	}
	return v.String()
}

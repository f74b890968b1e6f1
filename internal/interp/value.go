// Package interp implements the runtime value model and the tree-walking
// interpreter that executes split-function blocks against an entity's
// state. Every runtime (local, StateFlow, StateFun-model) executes entity
// code through this package, mirroring how the paper's Python runtimes
// reconstruct an object from operator state and run a method (§2.3).
package interp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds. It is one byte, so it shares a word
// with a value's bool.
type Kind uint8

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

// Value is a DSL runtime value, 56 bytes. The zero Value is None. Which
// word holds what depends on the kind:
//
//   - Kind and B share the first word; B is a KBool's bool.
//   - I is a KInt's int, or a KFloat's IEEE-754 bits (read them with Float).
//   - R is a KRef's entity; a KStr keeps its string in R.Key (read it with
//     Str).
//   - L is a KList's or a KDict's container: a list's Elems, or a dict's
//     pairs behind DictGet, DictSet and DictKeys. Containers have reference
//     semantics like Python: every copy of the value aliases the same
//     storage.
//
// A kind leaves the words it does not use zero.
type Value struct {
	Kind Kind
	B    bool
	I    int64
	R    EntityRef
	L    *Container
}

// Container is the shared backing store of a list or a dict value.
type Container struct {
	Elems []Value // a list's elements
	// dict holds a dict's pairs keyed by the encoded key (see dictKey); it
	// is nil until the first DictSet.
	dict map[string]dictEntry
}

// dictEntry is one dict pair: the key as the program wrote it, and its
// value.
type dictEntry struct{ k, v Value }

// Constructors.
var None = Value{Kind: KNone}

// IntV builds an int value.
func IntV(i int64) Value { return Value{Kind: KInt, I: i} }

// FloatV builds a float value.
func FloatV(f float64) Value { return Value{Kind: KFloat, I: int64(math.Float64bits(f))} }

// StrV builds a str value.
func StrV(s string) Value { return Value{Kind: KStr, R: EntityRef{Key: s}} }

// BoolV builds a bool value.
func BoolV(b bool) Value { return Value{Kind: KBool, B: b} }

// ListV builds a list value (the slice is owned by the value).
func ListV(elems ...Value) Value {
	if elems == nil {
		elems = []Value{}
	}
	return Value{Kind: KList, L: &Container{Elems: elems}}
}

// DictV builds an empty dict value.
func DictV() Value { return Value{Kind: KDict, L: &Container{}} }

// RefV builds an entity reference.
func RefV(class, key string) Value {
	return Value{Kind: KRef, R: EntityRef{Class: class, Key: key}}
}

// Float returns a KFloat's float.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Str returns a KStr's string.
func (v Value) Str() string { return v.R.Key }

// dictKey encodes a value as a dict key. Only scalars are hashable. Keys
// that are == encode alike, as in Python: a float with an integral value in
// int64's range keys as that int, so 1.0 finds 1 and both zeros are the
// key 0. Every NaN is one key — unlike Python, where a NaN key is found only
// through the very object it was stored under: a value has no identity to
// key on, and a NaN no key could ever find would be unreachable state.
func dictKey(v Value) (string, error) {
	switch v.Kind {
	case KInt:
		return "i:" + strconv.FormatInt(v.I, 10), nil
	case KFloat:
		f := v.Float()
		if i, ok := floatInt(f); ok {
			return "i:" + strconv.FormatInt(i, 10), nil
		}
		return "f:" + strconv.FormatFloat(f, 'g', -1, 64), nil
	case KStr:
		return "s:" + v.Str(), nil
	case KBool:
		if v.B {
			return "b:1", nil
		}
		return "b:0", nil
	default:
		return "", fmt.Errorf("unhashable dict key of type %s", v.Kind)
	}
}

// floatInt returns the int64 a float equals, if one does.
func floatInt(f float64) (int64, bool) {
	// -2^63 and 2^63 are exact floats; the ints are the range below 2^63.
	if f == math.Trunc(f) && f >= math.MinInt64 && f < -math.MinInt64 {
		return int64(f), true
	}
	return 0, false
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
	if v.L.dict == nil {
		v.L.dict = map[string]dictEntry{}
	}
	if e, ok := v.L.dict[dk]; ok {
		k = e.k // an equal key updates the pair and keeps its key, as in Python
	}
	v.L.dict[dk] = dictEntry{k: k, v: val}
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
	e, ok := v.L.dict[dk]
	return e.v, ok, nil
}

// sortedKeys returns a dict's encoded keys in sorted order, the order
// every rendering and encoding of a dict walks.
func (v Value) sortedKeys() []string {
	keys := make([]string, 0, len(v.L.dict))
	for k := range v.L.dict {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DictKeys returns dict keys in deterministic (sorted) order.
func (v Value) DictKeys() []Value {
	keys := v.sortedKeys()
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = v.L.dict[k].k
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
		return v.Float() != 0
	case KStr:
		return v.Str() != ""
	case KBool:
		return v.B
	case KList:
		return v.L != nil && len(v.L.Elems) > 0
	case KDict:
		return len(v.L.dict) > 0
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
	return v.Float()
}

// Equal implements DSL equality (== / !=). Int and float compare by value,
// exactly, as in Python (2**53 + 1 is not 2.0**53), so values that are
// equal are one dict key; floats compare as floats, never as bits.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		if v.Kind == KInt && o.Kind == KFloat || v.Kind == KFloat && o.Kind == KInt {
			i, f := v, o
			if v.Kind == KFloat {
				i, f = o, v
			}
			n, ok := floatInt(f.Float())
			return ok && n == i.I
		}
		return false
	}
	switch v.Kind {
	case KNone:
		return true
	case KInt:
		return v.I == o.I
	case KFloat:
		return v.Float() == o.Float()
	case KStr:
		return v.Str() == o.Str()
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
		if len(v.L.dict) != len(o.L.dict) {
			return false
		}
		for k, e := range v.L.dict {
			oe, ok := o.L.dict[k]
			if !ok || !e.v.Equal(oe.v) {
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
		return ListV(l...)
	case KDict:
		out := DictV()
		if n := len(v.L.dict); n > 0 {
			out.L.dict = make(map[string]dictEntry, n)
			for k, e := range v.L.dict {
				out.L.dict[k] = dictEntry{k: e.k, v: e.v.Clone()}
			}
		}
		return out
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
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KStr:
		return v.Str()
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
		keys := v.sortedKeys()
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			e := v.L.dict[k]
			parts = append(parts, e.k.Repr()+": "+e.v.Repr())
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
		return strconv.Quote(v.Str())
	}
	return v.String()
}

package interp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"statefulentities.dev/stateflow/internal/lang/types"
)

// builtins holds the implementation of each entry of types.Builtins at the
// entry's index. The checker has matched the arity and the argument types,
// so an implementation indexes its arguments without counting them.
var builtins = [len(types.Builtins)]func(recv Value, args []Value) (Value, error){
	types.FnLen: func(_ Value, a []Value) (Value, error) {
		switch a[0].Kind {
		case KList:
			return IntV(int64(len(a[0].L.Elems))), nil
		case KDict:
			return IntV(int64(len(a[0].L.dict))), nil
		case KStr:
			return IntV(int64(len([]rune(a[0].Str())))), nil
		}
		return None, fmt.Errorf("len of %s", a[0].Kind)
	},
	types.FnStr: func(_ Value, a []Value) (Value, error) { return StrV(a[0].String()), nil },
	types.FnInt: func(_ Value, a []Value) (Value, error) {
		switch a[0].Kind {
		case KInt:
			return a[0], nil
		case KFloat:
			return IntV(int64(a[0].Float())), nil
		case KBool:
			if a[0].B {
				return IntV(1), nil
			}
			return IntV(0), nil
		case KStr:
			n, err := strconv.ParseInt(strings.TrimSpace(a[0].Str()), 10, 64)
			if err != nil {
				return None, fmt.Errorf("invalid int literal %q", a[0].Str())
			}
			return IntV(n), nil
		}
		return None, fmt.Errorf("int of %s", a[0].Kind)
	},
	types.FnFloat: func(_ Value, a []Value) (Value, error) {
		switch a[0].Kind {
		case KInt:
			return FloatV(float64(a[0].I)), nil
		case KFloat:
			return a[0], nil
		case KStr:
			f, err := strconv.ParseFloat(strings.TrimSpace(a[0].Str()), 64)
			if err != nil {
				return None, fmt.Errorf("invalid float literal %q", a[0].Str())
			}
			return FloatV(f), nil
		}
		return None, fmt.Errorf("float of %s", a[0].Kind)
	},
	types.FnBool: func(_ Value, a []Value) (Value, error) { return BoolV(a[0].IsTruthy()), nil },
	types.FnAbs: func(_ Value, a []Value) (Value, error) {
		switch {
		case a[0].Kind == KInt && a[0].I < 0:
			return IntV(-a[0].I), nil
		case a[0].Kind == KFloat && a[0].Float() < 0:
			return FloatV(-a[0].Float()), nil
		case a[0].Kind == KInt || a[0].Kind == KFloat:
			return a[0], nil
		}
		return None, fmt.Errorf("abs of %s", a[0].Kind)
	},
	types.FnMin: func(_ Value, a []Value) (Value, error) { return extremum(a, -1) },
	types.FnMax: func(_ Value, a []Value) (Value, error) { return extremum(a, 1) },
	types.FnRange: func(_ Value, a []Value) (Value, error) {
		lo, hi := int64(0), a[len(a)-1].I
		if len(a) == 2 {
			lo = a[0].I
		}
		elems := make([]Value, 0, max(0, hi-lo))
		for i := lo; i < hi; i++ {
			elems = append(elems, IntV(i))
		}
		return ListV(elems...), nil
	},
	types.ListAppend: func(l Value, a []Value) (Value, error) {
		l.L.Elems = append(l.L.Elems, a[0])
		return None, nil
	},
	types.ListPop: func(l Value, a []Value) (Value, error) {
		n := len(l.L.Elems)
		if n == 0 {
			return None, errors.New("pop from empty list")
		}
		i := int64(n - 1)
		if len(a) == 1 {
			if a[0].Kind != KInt {
				return None, errors.New("pop index must be int")
			}
			var ok bool
			if i, ok = at(n, a[0].I); !ok {
				return None, errors.New("pop index out of range")
			}
		}
		v := l.L.Elems[i]
		l.L.Elems = append(l.L.Elems[:i], l.L.Elems[i+1:]...)
		return v, nil
	},
	types.DictGet: func(d Value, a []Value) (Value, error) {
		v, ok, err := d.DictGet(a[0])
		if err != nil || ok {
			return v, err
		}
		return a[1], nil
	},
	types.DictKeys: func(d Value, _ []Value) (Value, error) { return ListV(d.DictKeys()...), nil },
	types.DictValues: func(d Value, _ []Value) (Value, error) {
		keys := d.DictKeys()
		vals := make([]Value, len(keys))
		for i, k := range keys {
			vals[i], _, _ = d.DictGet(k)
		}
		return ListV(vals...), nil
	},
	types.StrUpper: func(s Value, _ []Value) (Value, error) { return StrV(strings.ToUpper(s.Str())), nil },
	types.StrLower: func(s Value, _ []Value) (Value, error) { return StrV(strings.ToLower(s.Str())), nil },
	types.StrStrip: func(s Value, _ []Value) (Value, error) { return StrV(strings.TrimSpace(s.Str())), nil },
}

// recvKind is the value kind of each receiver kind a method entry names;
// a function's (types.KInvalid) is KNone, the kind of its absent receiver.
var recvKind = [...]Kind{types.KList: KList, types.KDict: KDict, types.KStr: KStr}

// extremum returns the first of args that no later one beats: the least
// for sign -1 (min), the greatest for sign 1 (max).
func extremum(args []Value, sign int) (Value, error) {
	best := args[0]
	for _, a := range args[1:] {
		c, err := compare(a, best)
		if err != nil {
			return None, err
		}
		if c*sign > 0 {
			best = a
		}
	}
	return best, nil
}

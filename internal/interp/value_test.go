package interp

import (
	"testing"
	"unsafe"
)

var valueSink Value

// TestValueIsCompact pins the size of a value and what building one
// costs. Every frame slot, row slot, argument, workspace buffer and hop
// event holds values, so each word here is copied on every step of every
// request (a value was 104 bytes while every kind had a field of its
// own). Scalars, strs and references are built without allocating. The
// container ceilings are what a list and a dict cost while a dict was two
// maps: a list allocates its container, a dict its container and, once
// written, its map.
func TestValueIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 56 {
		t.Errorf("Value is %d bytes, ceiling 56", n)
	}
	s, class, key := "payload", "Account", "user000001"
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"IntV", func() { valueSink = IntV(42) }},
		{"FloatV", func() { valueSink = FloatV(1.5) }},
		{"StrV", func() { valueSink = StrV(s) }},
		{"BoolV", func() { valueSink = BoolV(true) }},
		{"RefV", func() { valueSink = RefV(class, key) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.name, n)
		}
	}

	elems := []Value{IntV(1), StrV("x")}
	d := DictV()
	for i, k := range []string{"a", "b", "c", "d"} {
		if err := d.DictSet(StrV(k), IntV(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"ListV", 1, func() { valueSink = ListV(elems...) }},
		{"DictV", 2, func() { valueSink = DictV() }},
		{"dict Clone", 4, func() { valueSink = d.Clone() }},
	} {
		n := testing.AllocsPerRun(100, c.f)
		t.Logf("%s: %.0f allocations", c.name, n)
		if n > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}

package interp

import (
	"encoding/hex"
	"math"
	"testing"
)

// TestFloatEdgeSemantics pins the DSL's float semantics on the values a
// float's bit pattern makes special: both zeros, NaN, both infinities and
// the largest decades. A float is stored as its IEEE-754 bits, so every
// comparison must go through the float, never through the bits: 0.0 and
// -0.0 are equal and both falsy, NaN equals nothing, itself included. The
// encodings are the canonical bytes state is priced and persisted by.
func TestFloatEdgeSemantics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	cases := []struct {
		name   string
		f      float64
		truthy bool
		str    string
		hex    string
	}{
		{"zero", 0, false, "0", "020000000000000000"},
		{"negzero", negZero, false, "-0", "020000000000000080"},
		{"nan", nan, true, "NaN", "02010000000000f87f"},
		{"posinf", math.Inf(1), true, "+Inf", "02000000000000f07f"},
		{"neginf", math.Inf(-1), true, "-Inf", "02000000000000f0ff"},
		{"1e308", 1e308, true, "1e+308", "02a0c8eb85f3cce17f"},
		{"-1e308", -1e308, true, "-1e+308", "02a0c8eb85f3cce1ff"},
	}
	for _, c := range cases {
		v := FloatV(c.f)
		if got := v.IsTruthy(); got != c.truthy {
			t.Errorf("%s: IsTruthy = %v, want %v", c.name, got, c.truthy)
		}
		if got := v.String(); got != c.str {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.str)
		}
		if got := v.AsFloat(); math.Float64bits(got) != math.Float64bits(c.f) {
			t.Errorf("%s: AsFloat = %v (bits %x), want bits %x", c.name, got, math.Float64bits(got), math.Float64bits(c.f))
		}
		if got, want := v.Equal(v), !math.IsNaN(c.f); got != want {
			t.Errorf("%s: v == v is %v, want %v", c.name, got, want)
		}
		enc := EncodeValue(v)
		if got := hex.EncodeToString(enc); got != c.hex {
			t.Errorf("%s: encoding %s, want %s", c.name, got, c.hex)
		}
		if ValueSize(v) != len(enc) {
			t.Errorf("%s: ValueSize %d, encoding %d bytes", c.name, ValueSize(v), len(enc))
		}
		back, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if back.Kind != KFloat || math.Float64bits(back.AsFloat()) != math.Float64bits(c.f) {
			t.Errorf("%s: decoded %s %v, want float bits %x", c.name, back.Kind, back, math.Float64bits(c.f))
		}
	}

	for _, p := range []struct {
		name string
		a, b Value
		eq   bool
	}{
		{"0.0 == -0.0", FloatV(0), FloatV(negZero), true},
		{"0 == -0.0", IntV(0), FloatV(negZero), true},
		{"-0.0 == 0", FloatV(negZero), IntV(0), true},
		{"NaN != NaN", FloatV(nan), FloatV(nan), false},
		{"+Inf == +Inf", FloatV(math.Inf(1)), FloatV(math.Inf(1)), true},
		{"+Inf != -Inf", FloatV(math.Inf(1)), FloatV(math.Inf(-1)), false},
		{"1e308 == 1e308", FloatV(1e308), FloatV(1e308), true},
		{"1e308 != +Inf", FloatV(1e308), FloatV(math.Inf(1)), false},
		{"1.0 == 1", FloatV(1), IntV(1), true},
		{"2**53 + 1 != 2.0**53", IntV(1<<53 + 1), FloatV(1 << 53), false},
		{"2.0**53 == 2**53", FloatV(1 << 53), IntV(1 << 53), true},
		{"0.5 != 0", FloatV(0.5), IntV(0), false},
		{"2.0**63 != any int", FloatV(1 << 63), IntV(math.MaxInt64), false},
		{"1.0 != True", FloatV(1), BoolV(true), false},
	} {
		if got := p.a.Equal(p.b); got != p.eq {
			t.Errorf("%s: Equal = %v", p.name, got)
		}
	}

	// Dict keys that are == are one key, as in Python: the two zeros are
	// the key 0, and setting one keeps the key written first. Every NaN is
	// the same key too (a value has no identity for NaN to key on), and a
	// float past int64's range keys by its shortest decimal form. Keys print
	// in the sorted order of their hashed form.
	d := DictV()
	for i, f := range []float64{0, negZero, nan, nan, math.Inf(1), math.Inf(-1), 1e308} {
		if err := d.DictSet(FloatV(f), IntV(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.String(), "{+Inf: 4, -Inf: 5, 1e+308: 6, NaN: 3, 0: 1}"; got != want {
		t.Errorf("dict %s, want %s", got, want)
	}
	for _, q := range []struct {
		key  Value
		want int64
	}{{FloatV(0), 1}, {FloatV(negZero), 1}, {IntV(0), 1}, {FloatV(nan), 3}, {FloatV(math.Inf(1)), 4}, {FloatV(1e308), 6}} {
		got, ok, err := d.DictGet(q.key)
		if err != nil || !ok || got.Kind != KInt || got.I != q.want {
			t.Errorf("dict[%v] = %v, %v, %v; want %d", q.key, got, ok, err, q.want)
		}
	}
	ints := DictV()
	if err := ints.DictSet(IntV(1), StrV("a")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := ints.DictGet(FloatV(1)); err != nil || !ok || got.Str() != "a" {
		t.Errorf("d[1] = a; d[1.0] = %v, %v, %v; want a", got, ok, err)
	}
	if _, ok, err := ints.DictGet(FloatV(1.5)); err != nil || ok {
		t.Errorf("d[1.5] found (%v), want missing", err)
	}
	zeros := DictV()
	for _, kv := range []struct{ k, v Value }{{FloatV(0), StrV("a")}, {FloatV(negZero), StrV("b")}} {
		if err := zeros.DictSet(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := zeros.String(), `{0: "b"}`; got != want {
		t.Errorf("{0.0: a, -0.0: b} is %s, want %s", got, want)
	}
	enc := EncodeValue(d)
	back, err := DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(EncodeValue(back)); got != hex.EncodeToString(enc) {
		t.Errorf("dict re-encodes as %s, want %s", got, hex.EncodeToString(enc))
	}
	if got, want := hex.EncodeToString(enc), "060502000000000000f07f010802000000000000f0ff010a02a0c8eb85f3cce17f010c02010000000000f87f01060200000000000000000102"; got != want {
		t.Errorf("dict encodes as %s, want %s", got, want)
	}
}

package interp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomValue generates an arbitrary value of bounded depth for
// property-based testing.
func randomValue(r *rand.Rand, depth int) Value {
	max := 8
	if depth <= 0 {
		max = 5 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return None
	case 1:
		return IntV(r.Int63() - (1 << 62))
	case 2:
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = r.Float64()
		}
		return FloatV(f)
	case 3:
		return StrV(randString(r))
	case 4:
		return BoolV(r.Intn(2) == 0)
	case 5:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return ListV(elems...)
	case 6:
		d := DictV()
		for i := 0; i < r.Intn(4); i++ {
			k := StrV(randString(r))
			_ = d.DictSet(k, randomValue(r, depth-1))
		}
		return d
	default:
		return RefV(randString(r), randString(r))
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]rune, n)
	letters := []rune("abcdefghijklmnop \t\n€漢")
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// genValue adapts randomValue to testing/quick.
type genValue struct{ V Value }

// Generate implements quick.Generator.
func (genValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genValue{V: randomValue(r, 3)})
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	prop := func(g genValue) bool {
		enc := EncodeValue(g.V)
		dec, err := DecodeValue(enc)
		if err != nil {
			t.Logf("decode error for %v: %v", g.V, err)
			return false
		}
		return dec.Equal(g.V)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministicProperty(t *testing.T) {
	prop := func(g genValue) bool {
		a := EncodeValue(g.V)
		b := EncodeValue(g.V.Clone())
		return string(a) == string(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEqualProperty(t *testing.T) {
	prop := func(g genValue) bool {
		return g.V.Clone().Equal(g.V)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestEnvRoundTrip round-trips a name-keyed environment of mixed values
// (ints, strings, lists with floats, refs) through the state codec.
func TestEnvRoundTrip(t *testing.T) {
	st := MapState{
		"a":  IntV(1),
		"b":  StrV("hello"),
		"xs": ListV(IntV(1), FloatV(2.5)),
		"r":  RefV("User", "alice"),
	}
	e := NewEncoder()
	e.State(st)
	d := NewDecoder(e.Bytes())
	back, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(st) {
		t.Fatalf("size: %d", len(back))
	}
	for k, v := range st {
		if !back[k].Equal(v) {
			t.Fatalf("%s: %v != %v", k, back[k], v)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	st := MapState{"k": StrV("x"), "n": IntV(5)}
	e := NewEncoder()
	e.State(st)
	d := NewDecoder(e.Bytes())
	back, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	if !back["n"].Equal(IntV(5)) {
		t.Fatalf("state: %v", back)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := EncodeValue(ListV(IntV(1), StrV("abc")))
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeValue(enc[:i]); err == nil {
			t.Fatalf("truncated decode at %d should fail", i)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	enc := append(EncodeValue(IntV(1)), 0xFF)
	if _, err := DecodeValue(enc); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

func TestEncodedSizeGrowsWithState(t *testing.T) {
	small := MapState{"payload": StrV(string(make([]byte, 100)))}
	large := MapState{"payload": StrV(string(make([]byte, 10_000)))}
	if EncodedSize(large) <= EncodedSize(small) {
		t.Fatal("size must grow with payload")
	}
}

func TestDictKeyKinds(t *testing.T) {
	d := DictV()
	keys := []Value{IntV(1), StrV("1"), BoolV(true), FloatV(1.5)}
	for i, k := range keys {
		if err := d.DictSet(k, IntV(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.L.dict) != 4 {
		t.Fatalf("distinct keys collapsed: %d", len(d.L.dict))
	}
	if err := d.DictSet(ListV(), None); err == nil {
		t.Fatal("lists must be unhashable")
	}
}

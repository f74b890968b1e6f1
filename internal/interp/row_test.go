package interp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/ir"
)

func testLayout() *ir.ClassLayout {
	return ir.NewClassLayout("C", 0, []string{"b", "a", "c"})
}

func TestRowGetSetSlots(t *testing.T) {
	r := NewRow(testLayout())
	slot, _ := r.Layout().SlotOf("a")
	if _, ok := r.GetSlot(slot); ok {
		t.Fatal("fresh row must be empty")
	}
	// Slot access agrees with name access.
	r.Set("a", IntV(1))
	if v, ok := r.GetSlot(slot); !ok || v.I != 1 {
		t.Fatalf("get slot: %v %v", v, ok)
	}
	r.SetSlot(slot, IntV(2))
	if v := r.CloneMap()["a"]; v.I != 2 {
		t.Fatalf("slot write not visible by name: %v", v)
	}
	if r.Len() != 1 {
		t.Fatalf("len: %d", r.Len())
	}
	// A name outside the layout has no slot, and writing it is a bug that
	// names the class and the attribute.
	if _, ok := r.Layout().SlotOf("dyn"); ok {
		t.Fatal("off-layout attribute must be absent")
	}
	requirePanic(t, "dyn is not an attribute of class C", func() { r.Set("dyn", StrV("x")) })
	requirePanic(t, "dyn is not an attribute of class C", func() { RowFromMap(testLayout(), MapState{"dyn": None}) })
}

// requirePanic runs fn and requires it to panic with a message containing
// want.
func requirePanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Fatalf("panic %q, want one containing %q", got, want)
		}
	}()
	fn()
}

// The row codec must emit exactly the bytes of the canonical name-keyed
// MapState encoding — differential state comparison depends on it.
func TestRowEncodingCanonical(t *testing.T) {
	r := NewRow(testLayout())
	r.Set("c", ListV(IntV(1), StrV("s")))
	r.Set("a", FloatV(2.5))
	r.Set("b", BoolV(true))
	e := NewEncoder()
	e.State(r.CloneMap())
	if !bytes.Equal(r.Encoding(), e.Bytes()) {
		t.Fatal("row encoding must match canonical MapState encoding")
	}
}

func TestRowEncodingCacheInvalidation(t *testing.T) {
	r := NewRow(testLayout())
	r.Set("a", StrV("x"))
	small := r.EncodedSize()
	if small == 0 {
		t.Fatal("size must be positive")
	}
	if r.EncodedSize() != small {
		t.Fatal("cached size must be stable")
	}
	r.Set("a", StrV(string(make([]byte, 500))))
	if r.EncodedSize() <= small {
		t.Fatal("write must invalidate the size cache")
	}
	slot, _ := r.Layout().SlotOf("a")
	before := r.EncodedSize()
	r.SetSlot(slot, StrV("tiny"))
	if r.EncodedSize() >= before {
		t.Fatal("slot write must invalidate the size cache")
	}
}

// A container value handed out by GetSlot can be mutated through the alias
// without a Set; the encoding must reflect such mutations instead of
// serving stale cached bytes.
func TestRowEncodingAliasedContainer(t *testing.T) {
	r := NewRow(testLayout())
	r.Set("a", ListV(IntV(1)))
	before := len(r.Encoding())
	slot, _ := r.Layout().SlotOf("a")
	v, _ := r.GetSlot(slot) // alias escapes
	v.L.Elems = append(v.L.Elems, StrV(string(make([]byte, 100))))
	r.Set("a", v) // what touchStateAttr does on tracked paths
	mid := len(r.Encoding())
	if mid <= before {
		t.Fatal("tracked container write not re-encoded")
	}
	// Mutation through the alias alone, with no Set at all.
	v.L.Elems = append(v.L.Elems, StrV(string(make([]byte, 200))))
	if len(r.Encoding()) <= mid {
		t.Fatal("aliased mutation served stale cached encoding")
	}
	e := NewEncoder()
	e.State(MapState{"a": v})
	if !bytes.Equal(r.Encoding(), e.Bytes()) {
		t.Fatal("aliased row encoding must stay canonical")
	}
	// Scalar-only rows keep caching (the fast path): same backing array
	// returned twice.
	s := NewRow(testLayout())
	s.Set("a", IntV(1))
	if &s.Encoding()[0] != &s.Encoding()[0] {
		t.Fatal("scalar row must serve the cached encoding")
	}
}

func TestRowCloneIsolation(t *testing.T) {
	r := NewRow(testLayout())
	r.Set("a", ListV(IntV(1)))
	c := r.Clone()
	slot, _ := r.Layout().SlotOf("a")
	v, _ := c.GetSlot(slot)
	v.L.Elems[0] = IntV(99)
	orig, _ := r.GetSlot(slot)
	if orig.L.Elems[0].I != 1 {
		t.Fatal("clone must deep-copy values")
	}
	if !bytes.Equal(r.Encoding(), func() []byte { c2 := r.Clone(); return c2.Encoding() }()) {
		t.Fatal("clone must encode identically")
	}
}

func TestRowDecodeRoundTrip(t *testing.T) {
	r := NewRow(testLayout())
	r.Set("a", IntV(7))
	r.Set("c", StrV("hello"))
	d := NewDecoder(r.Encoding())
	back, err := d.Row(testLayout())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Encoding(), back.Encoding()) {
		t.Fatalf("round trip: %v vs %v", r.CloneMap(), back.CloneMap())
	}
}

// Row bytes come from outside the program: an attribute the layout does not
// declare, or one named twice, is an error rather than a silent overflow or
// overwrite.
func TestRowDecodeRejectsOffLayoutAndDuplicateAttributes(t *testing.T) {
	e := NewEncoder()
	e.State(MapState{"a": IntV(1), "dyn": IntV(2)})
	if _, err := NewDecoder(e.Bytes()).Row(testLayout()); err == nil || !strings.Contains(err.Error(), "dyn is not an attribute of class C") {
		t.Fatalf("off-layout attribute: %v", err)
	}
	dup := NewEncoder()
	dup.uvarint(2)
	for _, v := range []Value{IntV(1), IntV(2)} {
		dup.str("a")
		dup.Value(v)
	}
	if _, err := NewDecoder(dup.Bytes()).Row(testLayout()); err == nil || !strings.Contains(err.Error(), "attribute a of class C appears twice") {
		t.Fatalf("duplicate attribute: %v", err)
	}
}

// Rows wider than 64 slots exercise the presence spill path.
func TestRowWide(t *testing.T) {
	attrs := make([]string, 80)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("f%02d", i)
	}
	wide := ir.NewClassLayout("W", 0, attrs)
	r := NewRow(wide)
	for i := 0; i < 80; i += 3 {
		r.SetSlot(i, IntV(int64(i)))
	}
	if v, ok := r.GetSlot(78); !ok || v.I != 78 {
		t.Fatalf("wide slot: %v %v", v, ok)
	}
	if _, ok := r.GetSlot(79); ok {
		t.Fatal("unset wide slot must miss")
	}
	e := NewEncoder()
	e.State(r.CloneMap())
	if !bytes.Equal(r.Encoding(), e.Bytes()) {
		t.Fatal("wide row encoding must stay canonical")
	}
	if !bytes.Equal(r.Encoding(), r.Clone().Encoding()) {
		t.Fatal("wide clone")
	}
}

// newFrame makes an empty frame over a layout, as a call of a method with
// no parameters binds one.
func newFrame(fl *ir.FrameLayout) *Frame {
	f := new(Frame)
	_ = f.Bind(&ir.Method{Frame: fl}, nil)
	return f
}

func TestFrameSlotNameAgreement(t *testing.T) {
	fl := ir.NewFrameLayout([]string{"x", "y"})
	f := newFrame(fl)
	if _, ok := f.GetSlot(frameSlot(t, fl, "x")); ok {
		t.Fatal("fresh frame must be empty")
	}
	f.SetSlot(0, IntV(1))
	if v, ok := f.GetSlot(frameSlot(t, fl, "x")); !ok || v.I != 1 {
		t.Fatalf("x's slot does not read the write to slot 0: %v %v", v, ok)
	}
	f.SetSlot(frameSlot(t, fl, "y"), IntV(2))
	if v, ok := f.GetSlot(1); !ok || v.I != 2 {
		t.Fatalf("slot 1 does not read the write to y's slot: %v %v", v, ok)
	}
	if _, ok := f.GetSlot(fl.NumSlots()); ok {
		t.Fatal("a slot past the layout must be undefined")
	}
}

// frameSlot reads a variable's slot off the layout, as the compiler's
// stamping pass does.
func frameSlot(t *testing.T, fl *ir.FrameLayout, name string) int {
	t.Helper()
	i := slices.Index(fl.Vars, name)
	if i < 0 {
		t.Fatalf("%s is not in the frame layout %v", name, fl.Vars)
	}
	return i
}

func TestFramePrune(t *testing.T) {
	fl := ir.NewFrameLayout([]string{"a", "b", "c"})
	f := newFrame(fl)
	for i, v := range []Value{IntV(1), ListV(IntV(5)), IntV(3)} {
		f.SetSlot(i, v)
	}
	f.Keep([]int{frameSlot(t, fl, "b")})
	if _, ok := f.GetSlot(frameSlot(t, fl, "a")); ok {
		t.Fatal("pruned var a survived")
	}
	if v, ok := f.GetSlot(frameSlot(t, fl, "b")); !ok || v.L.Elems[0].I != 5 {
		t.Fatalf("live var b lost: %v %v", v, ok)
	}
	if _, ok := f.GetSlot(frameSlot(t, fl, "c")); ok {
		t.Fatal("pruned var c survived")
	}
}

func TestFrameWide(t *testing.T) {
	vars := make([]string, 70)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%02d", i)
	}
	fl := ir.NewFrameLayout(vars)
	f := newFrame(fl)
	f.SetSlot(0, IntV(1))
	f.SetSlot(69, IntV(7))
	if v, ok := f.GetSlot(frameSlot(t, fl, "v69")); !ok || v.I != 7 {
		t.Fatalf("wide frame: %v %v", v, ok)
	}
	f.Keep([]int{69})
	if _, ok := f.GetSlot(69); !ok {
		t.Fatal("wide prune lost live var")
	}
	if _, ok := f.GetSlot(0); ok {
		t.Fatal("wide prune kept dead var")
	}
}

// encodesAlike is what Row.Holds compares, by encoding both values.
func encodesAlike(a, b Value) bool {
	ea, eb := NewEncoder(), NewEncoder()
	ea.Value(a)
	eb.Value(b)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// TestSameEncodingAgreesWithTheCodec: sameEncoding answers as comparing the
// two encodings does — for random pairs, a value and its deep copy, and the
// pairs that compare equal in the language but encode apart (an int and the
// float of the same value, both zeros, two NaNs, dict keys 1 and 1.0) or the
// other way round.
func TestSameEncodingAgreesWithTheCodec(t *testing.T) {
	dict := func(k, v Value) Value {
		d := DictV()
		if err := d.DictSet(k, v); err != nil {
			t.Fatal(err)
		}
		return d
	}
	pairs := [][2]Value{
		{IntV(1), FloatV(1)},
		{FloatV(0), FloatV(math.Copysign(0, -1))},
		{FloatV(math.NaN()), FloatV(math.NaN())},
		{FloatV(math.NaN()), {Kind: KFloat, I: int64(math.Float64bits(math.NaN()) ^ 1)}},
		{dict(IntV(1), StrV("x")), dict(FloatV(1), StrV("x"))},
		{dict(IntV(1), StrV("x")), dict(IntV(1), StrV("y"))},
		{dict(StrV("a"), IntV(1)), dict(StrV("b"), IntV(1))},
		{dict(StrV("a"), ListV(IntV(1))), dict(StrV("a"), ListV(IntV(1)))},
		{DictV(), DictV()},
		{ListV(IntV(1), StrV("s")), ListV(IntV(1), StrV("s"))},
		{ListV(IntV(1)), ListV(IntV(1), IntV(1))},
		{ListV(), ListV()},
		{StrV("k"), RefV("", "k")},
		{RefV("A", "k"), RefV("B", "k")},
		{BoolV(true), BoolV(false)},
		{None, None},
		{None, BoolV(false)},
	}
	rng := rand.New(rand.NewSource(5))
	for range 3000 {
		a := randomValue(rng, 3)
		pairs = append(pairs, [2]Value{a, a.Clone()}, [2]Value{a, randomValue(rng, 3)})
	}
	alike := 0
	for _, p := range pairs {
		want := encodesAlike(p[0], p[1])
		if got := sameEncoding(p[0], p[1]); got != want {
			t.Fatalf("sameEncoding(%v, %v) = %v, the encodings say %v", p[0], p[1], got, want)
		}
		if want {
			alike++
		}
	}
	if alike < len(pairs)/3 {
		t.Fatalf("scenario: only %d of %d pairs encode alike", alike, len(pairs))
	}
}

// TestRowHoldsAllocatesNothing: comparing a write's typical slot values — an
// int, a string, a bool and a list — with the row's allocates nothing, equal
// or not.
func TestRowHoldsAllocatesNothing(t *testing.T) {
	layout := ir.NewClassLayout("C", 0, []string{"n", "s", "b", "l"})
	r := NewRow(layout)
	r.SetSlot(0, IntV(7))
	r.SetSlot(1, StrV("payload"))
	r.SetSlot(2, BoolV(true))
	r.SetSlot(3, ListV(IntV(1), StrV("x")))
	same := []SlotValue{{0, IntV(7)}, {1, StrV("payload")}, {2, BoolV(true)}, {3, ListV(IntV(1), StrV("x"))}}
	changed := []SlotValue{{0, IntV(7)}, {1, StrV("payload")}, {3, ListV(IntV(1), StrV("y"))}}
	if !r.Holds(same) || r.Holds(changed) {
		t.Fatal("Holds answers wrongly")
	}
	if got := testing.AllocsPerRun(100, func() { r.Holds(same); r.Holds(changed) }); got != 0 {
		t.Fatalf("Holds allocates %.1f times, want 0", got)
	}
}

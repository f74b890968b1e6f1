package state

import (
	"errors"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
)

func ref(class, key string) interp.EntityRef {
	return interp.EntityRef{Class: class, Key: key}
}

// testLayouts lays out every class these tests store.
func testLayouts() *ir.Layouts {
	ls := &ir.Layouts{ByClass: map[string]*ir.ClassLayout{}}
	for _, l := range []*ir.ClassLayout{
		ir.NewClassLayout("A", 0, []string{"b", "a", "c", "p", "x", "xs"}),
		ir.NewClassLayout("Account", 1, []string{"owner", "balance", "tags"}),
		ir.NewClassLayout("B", 2, []string{"c"}),
		ir.NewClassLayout("Item", 3, []string{"stock"}),
	} {
		ls.ByClass[l.Class] = l
		ls.ByID = append(ls.ByID, l)
	}
	return ls
}

func get(t *testing.T, r *interp.Row, attr string) interp.Value {
	t.Helper()
	v, ok := r.CloneMap()[attr]
	if !ok {
		t.Fatalf("attr %s missing", attr)
	}
	return v
}

func TestCreateLookup(t *testing.T) {
	s := NewStore(testLayouts())
	setX := func(st interp.State) error {
		st.(*interp.Row).Set("x", interp.IntV(1))
		return nil
	}
	if err := s.Create(ref("A", "k1"), setX); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(ref("A", "k1"))
	if !ok || get(t, got, "x").I != 1 {
		t.Fatalf("lookup: %v %v", got, ok)
	}
	if err := s.Create(ref("A", "k1"), setX); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if !s.Exists(ref("A", "k1")) || s.Exists(ref("A", "zz")) {
		t.Fatal("exists")
	}
	// A constructor that fails after writing leaves no entity behind.
	err := s.Create(ref("A", "k2"), func(st interp.State) error {
		_ = setX(st)
		return errors.New("boom")
	})
	if err == nil || err.Error() != "boom" || s.Exists(ref("A", "k2")) {
		t.Fatalf("failed constructor: %v, exists %v", err, s.Exists(ref("A", "k2")))
	}
}

func TestPutClear(t *testing.T) {
	s := NewStore(testLayouts())
	s.PutMap(ref("A", "k"), interp.MapState{"x": interp.IntV(1)})
	if len(s.m) != 1 || !s.Exists(ref("A", "k")) {
		t.Fatalf("len: %d", len(s.m))
	}
	s.Clear()
	if len(s.m) != 0 || s.Exists(ref("A", "k")) {
		t.Fatal("clear")
	}
}

func TestRefsDeterministicOrder(t *testing.T) {
	s := NewStore(testLayouts())
	s.PutMap(ref("B", "2"), interp.MapState{})
	s.PutMap(ref("A", "9"), interp.MapState{})
	s.PutMap(ref("A", "1"), interp.MapState{})
	refs := s.Refs()
	want := []interp.EntityRef{ref("A", "1"), ref("A", "9"), ref("B", "2")}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("order: %v", refs)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := NewStore(testLayouts())
	s.PutMap(ref("Account", "alice"), interp.MapState{
		"owner":   interp.StrV("alice"),
		"balance": interp.IntV(100),
		"tags":    interp.ListV(interp.StrV("vip")),
	})
	s.PutMap(ref("Item", "apple"), interp.MapState{"stock": interp.IntV(7)})
	back, err := DecodeStore(s.Encode(), testLayouts())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.m) != 2 {
		t.Fatalf("len: %d", len(back.m))
	}
	st, ok := back.Lookup(ref("Account", "alice"))
	if !ok || get(t, st, "balance").I != 100 || get(t, st, "tags").L.Elems[0].Str() != "vip" {
		t.Fatalf("decoded: %v", st)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore(testLayouts())
		s.PutMap(ref("A", "x"), interp.MapState{"a": interp.IntV(1), "b": interp.StrV("s")})
		s.PutMap(ref("B", "y"), interp.MapState{"c": interp.BoolV(true)})
		return s
	}
	if string(build().Encode()) != string(build().Encode()) {
		t.Fatal("encoding must be deterministic")
	}
}

// The store's encoding must not depend on the order in which a class
// layout declares its attributes: layouts are an in-memory
// representation, the wire format is canonical.
func TestEncodeLayoutIndependent(t *testing.T) {
	attrs := interp.MapState{
		"a": interp.IntV(1), "b": interp.StrV("s"), "c": interp.BoolV(true),
	}
	var images []string
	for _, order := range [][]string{{"b", "a", "c"}, {"c", "b", "a"}} {
		s := NewStore(&ir.Layouts{ByClass: map[string]*ir.ClassLayout{
			"A": ir.NewClassLayout("A", 0, order),
		}})
		s.PutMap(ref("A", "x"), attrs)
		images = append(images, string(s.Encode()))
	}
	if images[0] != images[1] {
		t.Fatal("row encoding must be canonical regardless of layout")
	}
}

// An image is outside input: a row naming an attribute its class does not
// declare, one naming an attribute twice, and a row of a class the program
// does not have all fail to decode.
func TestDecodeRejectsOffLayoutRows(t *testing.T) {
	image := func(class string, attrs ...string) []byte {
		e := interp.NewEncoder()
		e.Value(interp.IntV(1))
		e.Value(interp.StrV(class))
		e.Value(interp.StrV("k"))
		e.Uvarint(uint64(len(attrs)))
		for _, a := range attrs {
			e.Str(a)
			e.Value(interp.IntV(1))
		}
		return e.Bytes()
	}
	if _, err := DecodeStore(image("B", "c"), testLayouts()); err != nil {
		t.Fatalf("a well-formed image: %v", err)
	}
	for _, tc := range []struct {
		img  []byte
		want string
	}{
		{image("B", "c", "zz"), "zz is not an attribute of class B"},
		{image("B", "c", "c"), "attribute c of class B appears twice"},
		{image("Nope"), "unknown class Nope"},
	} {
		if _, err := DecodeStore(tc.img, testLayouts()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want an error containing %q", err, tc.want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeStore([]byte{0xff, 0x01, 0x02}, testLayouts()); err == nil {
		t.Fatal("garbage must fail")
	}
	s := NewStore(testLayouts())
	s.PutMap(ref("A", "k"), interp.MapState{"x": interp.IntV(1)})
	enc := s.Encode()
	if _, err := DecodeStore(append(enc, 0x00), testLayouts()); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	if _, err := DecodeStore(enc[:len(enc)-2], testLayouts()); err == nil {
		t.Fatal("truncated must fail")
	}
}

func TestSizes(t *testing.T) {
	s := NewStore(testLayouts())
	if s.EncodedSize(ref("A", "zz")) != 0 {
		t.Fatal("missing entity size must be 0")
	}
	s.PutMap(ref("A", "small"), interp.MapState{"p": interp.StrV("x")})
	s.PutMap(ref("A", "big"), interp.MapState{"p": interp.StrV(string(make([]byte, 10_000)))})
	if s.EncodedSize(ref("A", "big")) <= s.EncodedSize(ref("A", "small")) {
		t.Fatal("size ordering")
	}
	if s.TotalEncodedSize() != s.EncodedSize(ref("A", "big"))+s.EncodedSize(ref("A", "small")) {
		t.Fatal("total size")
	}
	// The image is built in a buffer of exactly its size.
	if img := s.Encode(); cap(img) != len(img) || len(img) <= s.TotalEncodedSize() {
		t.Fatalf("image of %d bytes (rows %d) sits in a buffer of %d", len(img), s.TotalEncodedSize(), cap(img))
	}
}

// EncodedSize must be served from the row cache and refresh after writes.
func TestSizeCacheInvalidation(t *testing.T) {
	s := NewStore(testLayouts())
	s.PutMap(ref("A", "k"), interp.MapState{"p": interp.StrV("x")})
	small := s.EncodedSize(ref("A", "k"))
	row, _ := s.Lookup(ref("A", "k"))
	row.Set("p", interp.StrV(string(make([]byte, 1000))))
	if s.EncodedSize(ref("A", "k")) <= small {
		t.Fatal("size cache must invalidate on write")
	}
}

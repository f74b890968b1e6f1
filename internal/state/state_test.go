package state

import (
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
)

func ref(class, key string) interp.EntityRef {
	return interp.EntityRef{Class: class, Key: key}
}

func get(t *testing.T, r *interp.Row, attr string) interp.Value {
	t.Helper()
	v, ok := r.Get(attr)
	if !ok {
		t.Fatalf("attr %s missing", attr)
	}
	return v
}

func TestCreateLookup(t *testing.T) {
	s := NewStore(nil)
	st, err := s.Create(ref("A", "k1"))
	if err != nil {
		t.Fatal(err)
	}
	st.Set("x", interp.IntV(1))
	got, ok := s.Lookup(ref("A", "k1"))
	if !ok || get(t, got, "x").I != 1 {
		t.Fatalf("lookup: %v %v", got, ok)
	}
	if _, err := s.Create(ref("A", "k1")); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if !s.Exists(ref("A", "k1")) || s.Exists(ref("A", "zz")) {
		t.Fatal("exists")
	}
}

func TestPutDeleteLen(t *testing.T) {
	s := NewStore(nil)
	s.PutMap(ref("A", "k"), interp.MapState{"x": interp.IntV(1)})
	if s.Len() != 1 {
		t.Fatalf("len: %d", s.Len())
	}
	s.Delete(ref("A", "k"))
	if s.Len() != 0 || s.Exists(ref("A", "k")) {
		t.Fatal("delete")
	}
}

func TestRefsDeterministicOrder(t *testing.T) {
	s := NewStore(nil)
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
	s := NewStore(nil)
	s.PutMap(ref("Account", "alice"), interp.MapState{
		"owner":   interp.StrV("alice"),
		"balance": interp.IntV(100),
		"tags":    interp.ListV(interp.StrV("vip")),
	})
	s.PutMap(ref("Item", "apple"), interp.MapState{"stock": interp.IntV(7)})
	back, err := DecodeStore(s.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("len: %d", back.Len())
	}
	st, ok := back.Lookup(ref("Account", "alice"))
	if !ok || get(t, st, "balance").I != 100 || get(t, st, "tags").L.Elems[0].S != "vip" {
		t.Fatalf("decoded: %v", st)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore(nil)
		s.PutMap(ref("A", "x"), interp.MapState{"a": interp.IntV(1), "b": interp.StrV("s")})
		s.PutMap(ref("B", "y"), interp.MapState{"c": interp.BoolV(true)})
		return s
	}
	if string(build().Encode()) != string(build().Encode()) {
		t.Fatal("encoding must be deterministic")
	}
}

// The store's encoding must not depend on whether rows are laid out by a
// class layout or fall back to name-keyed maps: layouts are an in-memory
// representation, the wire format is canonical.
func TestEncodeLayoutIndependent(t *testing.T) {
	layouts := &ir.Layouts{ByClass: map[string]*ir.ClassLayout{
		"A": ir.NewClassLayout("A", 0, []string{"b", "a", "c"}),
	}}
	attrs := interp.MapState{
		"a": interp.IntV(1), "b": interp.StrV("s"), "c": interp.BoolV(true),
	}
	withLayout := NewStore(layouts)
	withLayout.PutMap(ref("A", "x"), attrs)
	without := NewStore(nil)
	without.PutMap(ref("A", "x"), attrs)
	if string(withLayout.Encode()) != string(without.Encode()) {
		t.Fatal("row encoding must be canonical regardless of layout")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeStore([]byte{0xff, 0x01, 0x02}, nil); err == nil {
		t.Fatal("garbage must fail")
	}
	s := NewStore(nil)
	s.PutMap(ref("A", "k"), interp.MapState{"x": interp.IntV(1)})
	enc := s.Encode()
	if _, err := DecodeStore(append(enc, 0x00), nil); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	if _, err := DecodeStore(enc[:len(enc)-2], nil); err == nil {
		t.Fatal("truncated must fail")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := NewStore(nil)
	s.PutMap(ref("A", "k"), interp.MapState{"xs": interp.ListV(interp.IntV(1))})
	c := s.Clone()
	st, _ := c.Lookup(ref("A", "k"))
	get(t, st, "xs").L.Elems[0] = interp.IntV(99)
	orig, _ := s.Lookup(ref("A", "k"))
	if get(t, orig, "xs").L.Elems[0].I != 1 {
		t.Fatal("clone must deep-copy")
	}
}

func TestSizes(t *testing.T) {
	s := NewStore(nil)
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
	s := NewStore(nil)
	s.PutMap(ref("A", "k"), interp.MapState{"p": interp.StrV("x")})
	small := s.EncodedSize(ref("A", "k"))
	row, _ := s.Lookup(ref("A", "k"))
	row.Set("p", interp.StrV(string(make([]byte, 1000))))
	if s.EncodedSize(ref("A", "k")) <= small {
		t.Fatal("size cache must invalidate on write")
	}
}

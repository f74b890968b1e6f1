package ir

import "testing"

func TestClassLayoutSlots(t *testing.T) {
	l := NewClassLayout("C", 3, []string{"b", "a", "c"})
	if l.NumSlots() != 3 || l.ID != 3 {
		t.Fatalf("layout: %+v", l)
	}
	for i, attr := range []string{"b", "a", "c"} {
		s, ok := l.SlotOf(attr)
		if !ok || s != i {
			t.Fatalf("slot of %s: %d %v", attr, s, ok)
		}
	}
	if _, ok := l.SlotOf("zz"); ok {
		t.Fatal("unknown attr must miss")
	}
	// Sorted order walks slots by attribute name: a(1), b(0), c(2).
	sorted := l.SortedSlots()
	if len(sorted) != 3 || sorted[0] != 1 || sorted[1] != 0 || sorted[2] != 2 {
		t.Fatalf("sorted: %v", sorted)
	}
}

func TestClassLayoutNilSafe(t *testing.T) {
	var l *ClassLayout
	if l.NumSlots() != 0 || l.SortedSlots() != nil {
		t.Fatal("nil layout must be empty")
	}
	if _, ok := l.SlotOf("x"); ok {
		t.Fatal("nil layout has no slots")
	}
}

func TestFrameLayoutSlots(t *testing.T) {
	l := NewFrameLayout([]string{"p0", "p1", "tmp"})
	if l.NumSlots() != 3 {
		t.Fatalf("slots: %d", l.NumSlots())
	}
	if l.Vars[1] != "p1" {
		t.Fatalf("slot 1 holds %s", l.Vars[1])
	}
	var nilL *FrameLayout
	if nilL.NumSlots() != 0 {
		t.Fatal("nil frame layout must be empty")
	}
}

func TestLayoutsInterning(t *testing.T) {
	known := NewClassLayout("Known", 0, []string{"x"})
	ls := &Layouts{ByClass: map[string]*ClassLayout{"Known": known}, ByID: []*ClassLayout{known}}
	if ls.IDOf("Known") != 0 {
		t.Fatal("known class id")
	}
	a := ls.IDOf("UnknownA")
	b := ls.IDOf("UnknownB")
	if a == b || a == 0 || b == 0 {
		t.Fatalf("interned ids must be distinct and fresh: %d %d", a, b)
	}
	if ls.IDOf("UnknownA") != a {
		t.Fatal("interning must be stable")
	}
	if ls.ClassOf(a) != "UnknownA" || ls.ClassOf(0) != "Known" {
		t.Fatal("class id reverse lookup")
	}
	var nilLs *Layouts
	if nilLs.IDOf("x") != 0 || nilLs.LayoutOf("x") != nil {
		t.Fatal("nil registry must be inert")
	}
}

// Program.Layouts indexes the layouts stamped on the operators by name and
// by class id, and caches the registry.
func TestProgramLayoutsRegistry(t *testing.T) {
	p := &Program{
		Operators: map[string]*Operator{
			"A": {Name: "A", KeyAttr: "k", Layout: NewClassLayout("A", 0, []string{"k", "v"})},
			"B": {Name: "B", KeyAttr: "k", Layout: NewClassLayout("B", 1, []string{"k"})},
		},
		OperatorOrder: []string{"A", "B"},
	}
	ls := p.Layouts()
	if ls.LayoutOf("A").NumSlots() != 2 || ls.LayoutOf("B").ID != 1 || ls.ByID[1] != ls.LayoutOf("B") {
		t.Fatalf("registry: %+v", ls)
	}
	if p.Layouts() != ls {
		t.Fatal("layouts must be cached")
	}
	if s, ok := ls.LayoutOf("A").SlotOf("v"); !ok || s != 1 {
		t.Fatal("attr slot of a stamped layout")
	}
}

// Static storage layouts. The compiler's analysis already knows every
// class's attribute set and every method's variable set, so instead of
// resolving names through hash maps on every event, it emits dense layouts:
// a ClassLayout maps each declared attribute to a fixed slot index and a
// FrameLayout maps each method-local variable (parameters, locals,
// splitter temporaries) to a fixed frame slot. Runtimes execute against
// slice-backed frames and rows indexed by these slots, and nothing else:
// a name resolves to its slot only where state enters or leaves a runtime.
package ir

import (
	"sort"
	"sync"
)

// ClassLayout is the dense attribute layout of one operator (entity
// class): Attrs[slot] names the attribute stored in that slot. The ID is a
// program-wide dense class identifier used by transaction reservation keys
// in place of the class name string.
type ClassLayout struct {
	Class string   `json:"class"`
	ID    int      `json:"id"`
	Attrs []string `json:"attrs"` // slot index -> attribute name (declaration order)

	index  map[string]int // attribute name -> slot
	sorted []int          // slots in attribute-name order (canonical encoding order)
}

// NewClassLayout builds a layout over the given attribute names.
func NewClassLayout(class string, id int, attrs []string) *ClassLayout {
	l := &ClassLayout{Class: class, ID: id, Attrs: append([]string(nil), attrs...)}
	l.build()
	return l
}

func (l *ClassLayout) build() {
	l.index = make(map[string]int, len(l.Attrs))
	for i, a := range l.Attrs {
		l.index[a] = i
	}
	l.sorted = make([]int, len(l.Attrs))
	for i := range l.sorted {
		l.sorted[i] = i
	}
	sort.Slice(l.sorted, func(i, j int) bool { return l.Attrs[l.sorted[i]] < l.Attrs[l.sorted[j]] })
}

// SlotOf returns the slot of an attribute, or ok=false. Nil-safe.
func (l *ClassLayout) SlotOf(attr string) (int, bool) {
	if l == nil {
		return 0, false
	}
	if l.index == nil {
		l.build()
	}
	s, ok := l.index[attr]
	return s, ok
}

// NumSlots returns the number of declared attribute slots. Nil-safe.
func (l *ClassLayout) NumSlots() int {
	if l == nil {
		return 0
	}
	return len(l.Attrs)
}

// SortedSlots returns slot indices ordered by attribute name; the codec
// uses it to emit rows in canonical order without sorting at encode time.
// Nil-safe.
func (l *ClassLayout) SortedSlots() []int {
	if l == nil {
		return nil
	}
	if l.sorted == nil {
		l.build()
	}
	return l.sorted
}

// FrameLayout is the dense variable layout of one method's execution
// frame: Vars[slot] names the variable stored in that slot. Parameters
// occupy the leading slots in declaration order. It carries no name index:
// the compiler stamps every slot the runtime needs onto the nodes, blocks
// and invokes that use it.
type FrameLayout struct {
	Vars []string `json:"vars"`
}

// NewFrameLayout builds a layout over the given variable names.
func NewFrameLayout(vars []string) *FrameLayout {
	return &FrameLayout{Vars: append([]string(nil), vars...)}
}

// NumSlots returns the number of variable slots. Nil-safe.
func (l *FrameLayout) NumSlots() int {
	if l == nil {
		return 0
	}
	return len(l.Vars)
}

// Layouts is the program-wide class-layout registry handed to state
// stores and transaction workspaces. Classes outside the program (tests,
// hand-built stores) are interned on demand so reservation keys stay
// stable within one registry.
type Layouts struct {
	ByClass map[string]*ClassLayout
	ByID    []*ClassLayout

	mu       sync.Mutex
	interned map[string]int
}

// LayoutOf returns the layout of a class, or nil. Nil-safe.
func (ls *Layouts) LayoutOf(class string) *ClassLayout {
	if ls == nil {
		return nil
	}
	return ls.ByClass[class]
}

// IDOf returns the dense id of a class, interning unknown classes so ids
// stay consistent for the lifetime of the registry. Nil-safe (returns 0).
func (ls *Layouts) IDOf(class string) int {
	if ls == nil {
		return 0
	}
	if l, ok := ls.ByClass[class]; ok {
		return l.ID
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.interned == nil {
		ls.interned = map[string]int{}
	}
	id, ok := ls.interned[class]
	if !ok {
		id = len(ls.ByID) + len(ls.interned)
		ls.interned[class] = id
	}
	return id
}

// ClassOf resolves a dense class id back to its name. Interned
// (non-program) classes resolve via the intern table. Nil-safe.
func (ls *Layouts) ClassOf(id int) string {
	if ls == nil {
		return ""
	}
	if id >= 0 && id < len(ls.ByID) {
		return ls.ByID[id].Class
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for class, i := range ls.interned {
		if i == id {
			return class
		}
	}
	return ""
}

// Layouts returns the registry of the class layouts the compiler stamped
// on the program's operators. The result is cached; it is safe for
// concurrent use after the first call.
func (p *Program) Layouts() *Layouts {
	p.layoutsOnce.Do(func() {
		ls := &Layouts{ByClass: map[string]*ClassLayout{}}
		for _, name := range p.OperatorOrder {
			l := p.Operators[name].Layout
			ls.ByClass[name] = l
			ls.ByID = append(ls.ByID, l)
		}
		p.layouts = ls
	})
	return p.layouts
}

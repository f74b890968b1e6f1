// Frame is the slice-backed variable environment of one method
// activation. The compiler's layout pass assigns every variable of a
// method a dense slot (ir.FrameLayout) and stamps it on every node that
// names the variable; the interpreter reads and writes by slice index.
package interp

import (
	"fmt"

	"statefulentities.dev/stateflow/internal/ir"
)

// Frame holds the variables of one method activation in the dense slot
// array its method's FrameLayout describes.
type Frame struct {
	layout *ir.FrameLayout
	slots  []Value
	def    uint64 // definedness bitmap for frames of up to 64 slots
	defBig []bool // definedness spill for wider frames (non-nil iff used)
}

// NewFrame allocates an empty frame for a layout.
func NewFrame(layout *ir.FrameLayout) *Frame {
	n := layout.NumSlots()
	f := &Frame{layout: layout, slots: make([]Value, n)}
	if n > 64 {
		f.defBig = make([]bool, n)
	}
	return f
}

func (f *Frame) defined(i int) bool {
	if f.defBig != nil {
		return f.defBig[i]
	}
	return f.def&(1<<uint(i)) != 0
}

func (f *Frame) setDef(i int) {
	if f.defBig != nil {
		f.defBig[i] = true
		return
	}
	f.def |= 1 << uint(i)
}

func (f *Frame) clearDef(i int) {
	if f.defBig != nil {
		f.defBig[i] = false
		return
	}
	f.def &^= 1 << uint(i)
}

// Layout returns the frame's layout.
func (f *Frame) Layout() *ir.FrameLayout { return f.layout }

// Get reads a variable by name; a name outside the layout is undefined.
func (f *Frame) Get(name string) (Value, bool) {
	if i, ok := f.layout.SlotOf(name); ok {
		return f.GetSlot(i)
	}
	return None, false
}

// Set writes a variable by name. The name must be in the layout: the
// compiler puts every variable a method can write there.
func (f *Frame) Set(name string, v Value) {
	i, ok := f.layout.SlotOf(name)
	if !ok {
		panic(fmt.Sprintf("interp: variable %s is not in the frame layout %v", name, f.layout.Vars))
	}
	f.SetSlot(i, v)
}

// GetSlot reads a variable by 0-based layout slot.
func (f *Frame) GetSlot(i int) (Value, bool) {
	if i >= len(f.slots) || !f.defined(i) {
		return None, false
	}
	return f.slots[i], true
}

// SetSlot writes a variable by 0-based layout slot.
func (f *Frame) SetSlot(i int, v Value) {
	f.slots[i] = v
	f.setDef(i)
}

// Len counts defined variables.
func (f *Frame) Len() int {
	n := 0
	for i := range f.slots {
		if f.defined(i) {
			n++
		}
	}
	return n
}

// Clone deep-copies the frame so suspended continuations are isolated
// from later mutation.
func (f *Frame) Clone() *Frame {
	out := &Frame{layout: f.layout, slots: make([]Value, len(f.slots)), def: f.def}
	if f.defBig != nil {
		out.defBig = make([]bool, len(f.defBig))
		copy(out.defBig, f.defBig)
	}
	for i := range f.slots {
		if f.defined(i) {
			out.slots[i] = f.slots[i].Clone()
		}
	}
	return out
}

// Prune drops every variable not in keep (the block's live-out set),
// releasing the values the continuation no longer needs.
func (f *Frame) Prune(keep []string) {
	keepSlot := make([]bool, len(f.slots))
	for _, k := range keep {
		if i, ok := f.layout.SlotOf(k); ok {
			keepSlot[i] = true
		}
	}
	for i := range f.slots {
		if !keepSlot[i] {
			f.slots[i] = None
			f.clearDef(i)
		}
	}
}

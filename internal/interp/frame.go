// Frame is the slice-backed variable environment of one method
// activation. The compiler's layout pass assigns every variable of a
// method a dense slot (ir.FrameLayout) and stamps it on every node that
// names the variable, every invoke that assigns it and every block that
// keeps it live; the interpreter and the executor read, write and prune by
// slice index.
package interp

import (
	"fmt"
	"slices"

	"statefulentities.dev/stateflow/internal/ir"
)

// Frame holds the variables of one method activation in the dense slot
// array its method's FrameLayout describes.
type Frame struct {
	slots  []Value
	def    uint64 // definedness bitmap for frames of up to 64 slots
	defBig []bool // definedness spill for wider frames (non-nil iff used)
}

// Bind makes f, in place, the frame of a fresh activation of m: empty over
// m's layout, with m's parameters bound to args in the leading slots the
// layout pass gives them. Only the slot array is allocated.
func (f *Frame) Bind(m *ir.Method, args []Value) (err error) {
	*f, err = FrameIn(m, args, make([]Value, m.Frame.NumSlots()))
	return err
}

// FrameIn returns the frame of a fresh activation of m over caller-provided
// storage: slots, of length m.Frame.NumSlots(), becomes the activation's
// slot array, so nothing is allocated for a frame of up to 64 slots. args
// may already be the leading slots — a caller that evaluated a call's
// arguments where the callee's frame begins — and are then taken in place;
// whatever else slots held is dropped. The frame is returned by value, so a
// caller whose frame does not outlive it keeps both the frame and its slots
// on its stack (see SlotsIn).
func FrameIn(m *ir.Method, args, slots []Value) (Frame, error) {
	if len(args) != len(m.Params) {
		return Frame{}, &RuntimeError{Msg: fmt.Sprintf("%s expects %d args, got %d", m.Name, len(m.Params), len(args))}
	}
	if len(args) > 0 && &args[0] != &slots[0] {
		copy(slots, args)
	}
	clear(slots[len(args):])
	f := Frame{slots: slots}
	if len(slots) > 64 {
		f.defBig = make([]bool, len(slots))
	}
	for i := range args {
		f.setDef(i)
	}
	return f, nil
}

// StackSlots is the widest frame an activation that ends before its
// caller returns binds over a caller's stack array: a simple root call,
// __init__ and an inline self-call. Four values cover the shipped
// programs' simple methods.
const StackSlots = 4

// SlotsIn returns m's slot array: the leading part of buf, a caller's
// stack array, when m's frame fits there, and a heap array when it does
// not.
func SlotsIn(buf []Value, m *ir.Method) []Value {
	if n := m.Frame.NumSlots(); n <= len(buf) {
		return buf[:n]
	}
	return make([]Value, m.Frame.NumSlots())
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

// Keep drops every variable outside slots (the suspending block's
// ir.Block.LiveOutSlots), releasing the values the continuation no longer
// needs.
func (f *Frame) Keep(slots []int) {
	for i := range f.slots {
		if f.defined(i) && !slices.Contains(slots, i) {
			f.slots[i] = None
			f.clearDef(i)
		}
	}
}

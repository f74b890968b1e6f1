// Row is the dense, slot-indexed attribute store of one entity instance —
// the slotted counterpart of MapState. The class's ir.ClassLayout fixes a
// slot for every declared attribute, and a row holds nothing else. Rows
// cache their canonical encoding so snapshot writes and state diffing stop
// re-serializing unchanged entities: any write invalidates the cache, and
// the codec walks the layout's precomputed sorted slot order so the bytes
// stay identical to the name-keyed MapState encoding (which differential
// tests rely on). State-size cost accounting does not depend on the
// cache: EncodedSize computes the length without producing the bytes.
package interp

import (
	"fmt"

	"statefulentities.dev/stateflow/internal/ir"
)

// Row holds one entity's attributes in layout order.
type Row struct {
	layout      *ir.ClassLayout
	slots       []Value
	presentBits uint64 // presence bitmap for rows of up to 64 slots
	presentBig  []bool // presence spill for wider rows (non-nil iff used)
	enc         []byte // cached canonical encoding; nil = dirty
	// aliased disables the encoding cache: a container value (list/dict)
	// was handed out by GetSlot, so the holder can mutate the row's state
	// through the shared backing store without going through Set. The
	// flag is deliberately sticky — the alias may outlive any later Set
	// (touchStateAttr re-installs the same container) — so an aliased
	// row re-encodes per call, exactly the pre-slotted behavior. Scalars
	// are copied on read, so scalar-only rows keep full caching.
	aliased bool
}

// NewRow allocates an empty row for a class layout.
func NewRow(layout *ir.ClassLayout) *Row {
	n := layout.NumSlots()
	r := &Row{layout: layout, slots: make([]Value, n)}
	if n > 64 {
		r.presentBig = make([]bool, n)
	}
	return r
}

func (r *Row) isPresent(i int) bool {
	if r.presentBig != nil {
		return r.presentBig[i]
	}
	return r.presentBits&(1<<uint(i)) != 0
}

func (r *Row) markPresent(i int) {
	if r.presentBig != nil {
		r.presentBig[i] = true
		return
	}
	r.presentBits |= 1 << uint(i)
}

// RowFromMap builds a row over a layout from name-keyed attributes, each of
// which must be in the layout (see Set).
func RowFromMap(layout *ir.ClassLayout, st MapState) *Row {
	r := NewRow(layout)
	for k, v := range st {
		r.Set(k, v)
	}
	return r
}

// Layout returns the row's class layout.
func (r *Row) Layout() *ir.ClassLayout { return r.layout }

// leak marks the row uncacheable when a container value escapes.
func (r *Row) leak(v Value) Value {
	if v.Kind == KList || v.Kind == KDict {
		r.aliased = true
		r.enc = nil
	}
	return v
}

// Set writes an attribute by name, invalidating the cached encoding. The
// name must be in the layout: a class has exactly the attributes its
// __init__ declares, so any other name is a bug in the caller.
func (r *Row) Set(attr string, v Value) {
	i, ok := r.layout.SlotOf(attr)
	if !ok {
		panic(fmt.Sprintf("interp: %s is not an attribute of class %s", attr, r.class()))
	}
	r.SetSlot(i, v)
}

// class names the row's class for error messages.
func (r *Row) class() string {
	if r.layout == nil {
		return "<no layout>"
	}
	return r.layout.Class
}

// GetSlot implements State.
func (r *Row) GetSlot(slot int) (Value, bool) {
	if slot >= len(r.slots) || !r.isPresent(slot) {
		return None, false
	}
	return r.leak(r.slots[slot]), true
}

// SetSlot implements State, invalidating the cached encoding.
func (r *Row) SetSlot(slot int, v Value) {
	r.enc = nil
	r.slots[slot] = v
	r.markPresent(slot)
}

// Len counts present attributes.
func (r *Row) Len() int {
	n := 0
	for i := range r.slots {
		if r.isPresent(i) {
			n++
		}
	}
	return n
}

// CloneMap returns the attributes as a deep-copied MapState.
func (r *Row) CloneMap() MapState {
	out := make(MapState, r.Len())
	for i := range r.slots {
		if r.isPresent(i) {
			out[r.layout.Attrs[i]] = r.slots[i].Clone()
		}
	}
	return out
}

// Clone deep-copies the row. The encoding cache carries over (clones
// encode identically).
func (r *Row) Clone() *Row {
	out := &Row{layout: r.layout, slots: make([]Value, len(r.slots)), presentBits: r.presentBits}
	if r.presentBig != nil {
		out.presentBig = make([]bool, len(r.presentBig))
		copy(out.presentBig, r.presentBig)
	}
	for i := range r.slots {
		if r.isPresent(i) {
			out.slots[i] = r.slots[i].Clone()
		}
	}
	if r.enc != nil {
		out.enc = r.enc
	}
	return out
}

// Encoding returns the row's canonical encoding — byte-identical to
// Encoder.State over the row's attributes — computing and caching it if
// dirty. Rows with escaped container aliases re-encode every time (the
// alias holder can mutate state without notifying the row). The returned
// slice must not be mutated.
func (r *Row) Encoding() []byte {
	if r.enc != nil && !r.aliased {
		return r.enc
	}
	e := NewEncoderSize(r.EncodedSize())
	r.appendEncoding(e)
	if !r.aliased {
		r.enc = e.Bytes()
	}
	return e.Bytes()
}

// EncodedSize returns len(Encoding()) without building the bytes: a walk
// over the present slots that sums what appendEncoding would write. The
// cost models price every executed event and every written row by it, on
// rows a transaction just dirtied, so it must not serialize.
func (r *Row) EncodedSize() int {
	if r.enc != nil && !r.aliased {
		return len(r.enc)
	}
	n := uvarintSize(uint64(r.Len()))
	for i := range r.slots {
		if r.isPresent(i) {
			n += strSize(r.layout.Attrs[i]) + ValueSize(r.slots[i])
		}
	}
	return n
}

// SlotValue is one attribute value addressed by its layout slot.
type SlotValue struct {
	Slot int
	V    Value
}

// EncodedSizeWith returns the EncodedSize of r with vals set over it — the
// row a buffered write installs — without building that row. A nil r is an
// empty row of layout (a creation); vals names each slot at most once.
func EncodedSizeWith(layout *ir.ClassLayout, r *Row, vals []SlotValue) int {
	n, count := 0, 0
	for slot, attr := range layout.Attrs {
		v, ok := None, false
		for i := range vals {
			if vals[i].Slot == slot {
				v, ok = vals[i].V, true
				break
			}
		}
		if !ok && r != nil && r.isPresent(slot) {
			v, ok = r.slots[slot], true
		}
		if ok {
			n += strSize(attr) + ValueSize(v)
			count++
		}
	}
	return uvarintSize(uint64(count)) + n
}

// Holds reports whether every value in vals encodes exactly as r's value at
// its slot does, so setting them would leave r's encoding unchanged. It
// compares the values without encoding them (sameEncoding).
func (r *Row) Holds(vals []SlotValue) bool {
	for _, sv := range vals {
		if !r.isPresent(sv.Slot) || !sameEncoding(r.slots[sv.Slot], sv.V) {
			return false
		}
	}
	return true
}

// Row appends a row in canonical (sorted attribute name) order.
func (e *Encoder) Row(r *Row) { r.appendEncoding(e) }

// EncodeTo appends the row's canonical encoding to e — a copy of the cached
// bytes when the row is clean, a walk over the attributes when it is dirty
// — and caches nothing. It is how a store image is assembled: every row goes
// straight into the one presized buffer, and no row is left holding a
// private copy of itself that only the next image would read.
func (r *Row) EncodeTo(e *Encoder) {
	if r.enc != nil && !r.aliased {
		e.Append(r.enc)
		return
	}
	r.appendEncoding(e)
}

// appendEncoding walks the layout's precomputed sorted slots so no
// per-encode sorting or map iteration happens on the fast path. It reads
// values directly (no alias bookkeeping): encoding does not escape them.
func (r *Row) appendEncoding(e *Encoder) {
	e.uvarint(uint64(r.Len()))
	for _, slot := range r.layout.SortedSlots() {
		if r.isPresent(slot) {
			e.str(r.layout.Attrs[slot])
			e.Value(r.slots[slot])
		}
	}
}

// Row reads a row encoding back into a row over the given layout. The
// bytes come from outside the program (snapshot images), so an attribute
// the layout does not declare, or one named twice, is an error.
func (d *Decoder) Row(layout *ir.ClassLayout) (*Row, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	r := NewRow(layout)
	for ; n > 0; n-- {
		attr, err := d.str()
		if err != nil {
			return nil, err
		}
		slot, ok := layout.SlotOf(attr)
		if !ok {
			return nil, fmt.Errorf("decode: %s is not an attribute of class %s", attr, r.class())
		}
		if r.isPresent(slot) {
			return nil, fmt.Errorf("decode: attribute %s of class %s appears twice", attr, r.class())
		}
		if r.slots[slot], err = d.Value(); err != nil {
			return nil, err
		}
		r.markPresent(slot)
	}
	return r, nil
}

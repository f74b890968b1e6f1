// Package state implements the keyed state backend of a dataflow worker:
// a committed store of entity states with serialization support for
// snapshots and size accounting for the cost model of the system-overhead
// experiment (§4). Entities are stored as dense slot-indexed rows
// (interp.Row) laid out by the compiler's per-class attribute layouts.
// Encode builds a store image in one presized buffer (EncodeInto: in a
// recycled one), each row encoded straight into it; EncodedSize and
// TotalEncodedSize serialize nothing at all — a row computes its encoded
// length with a size-only walk.
package state

import (
	"fmt"
	"sort"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
)

// Store holds the committed states of all entities resident on one worker
// partition.
type Store struct {
	m       map[interp.EntityRef]*interp.Row
	layouts *ir.Layouts
}

// NewStore returns an empty store over a program's class layouts. A nil
// registry stands for a program without classes: the store can hold only
// rows without attributes.
func NewStore(layouts *ir.Layouts) *Store {
	if layouts == nil {
		// An empty registry still interns class ids, so reservation keys of
		// different classes stay distinct and resolve back to their names.
		layouts = &ir.Layouts{}
	}
	return &Store{m: map[interp.EntityRef]*interp.Row{}, layouts: layouts}
}

// Layouts exposes the store's class-layout registry.
func (s *Store) Layouts() *ir.Layouts { return s.layouts }

// ClassID returns the dense class id used in transaction reservation
// keys, consistent for the lifetime of the store's layout registry.
func (s *Store) ClassID(class string) int { return s.layouts.IDOf(class) }

// Lookup returns an entity's live row (mutable), or ok=false.
func (s *Store) Lookup(ref interp.EntityRef) (*interp.Row, bool) {
	st, ok := s.m[ref]
	return st, ok
}

// Exists reports whether the entity is present.
func (s *Store) Exists(ref interp.EntityRef) bool {
	_, ok := s.m[ref]
	return ok
}

// NewRow allocates a detached row laid out for the given class (not
// installed in the store).
func (s *Store) NewRow(class string) *interp.Row {
	return interp.NewRow(s.layouts.LayoutOf(class))
}

// Create makes a new entity: it fails if the entity exists, and otherwise
// runs ctor on a detached row laid out for the class, installing the row
// only if ctor returns nil — a constructor that fails leaves nothing behind.
func (s *Store) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	if _, dup := s.m[ref]; dup {
		return fmt.Errorf("entity %s already exists", ref)
	}
	row := s.NewRow(ref.Class)
	if err := ctor(row); err != nil {
		return err
	}
	s.m[ref] = row
	return nil
}

// Put installs (or replaces) an entity's row.
func (s *Store) Put(ref interp.EntityRef, st *interp.Row) { s.m[ref] = st }

// PutMap installs an entity's state from a name-keyed attribute map, each
// of whose names must be an attribute of the entity's class.
func (s *Store) PutMap(ref interp.EntityRef, st interp.MapState) {
	s.m[ref] = interp.RowFromMap(s.layouts.LayoutOf(ref.Class), st)
}

// Clear removes every entity, keeping the store's map for reuse.
func (s *Store) Clear() { clear(s.m) }

// Refs lists resident entities in deterministic order.
func (s *Store) Refs() []interp.EntityRef {
	out := make([]interp.EntityRef, 0, len(s.m))
	for ref := range s.m {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Keys lists the keys of resident entities of one class, sorted.
func (s *Store) Keys(class string) []string {
	var out []string
	for ref := range s.m {
		if ref.Class == class {
			out = append(out, ref.Key)
		}
	}
	sort.Strings(out)
	return out
}

// EncodedSize returns the serialized size of one entity's state, or 0 if
// absent. Cost models charge state (de)serialization proportional to it;
// the row computes it without serializing (interp.Row.EncodedSize), so
// pricing a just-written entity builds no bytes.
func (s *Store) EncodedSize(ref interp.EntityRef) int {
	st, ok := s.m[ref]
	if !ok {
		return 0
	}
	return st.EncodedSize()
}

// Encode serializes the complete store deterministically into a buffer
// sized for exactly the image (cap == len). Rows are encoded in place — a
// clean row's cached bytes are copied in, a dirty row is walked — and none
// is left with a cached encoding it did not have: the image is the only
// copy of the bytes Encode allocates.
func (s *Store) Encode() []byte { return s.EncodeInto(nil) }

// EncodeInto is Encode into spare's storage when its capacity holds the
// image — overwriting whatever spare held — and into a fresh buffer sized
// for exactly the image otherwise. The bytes are Encode's either way.
func (s *Store) EncodeInto(spare []byte) []byte {
	refs := s.Refs()
	size := interp.ValueSize(interp.IntV(int64(len(refs))))
	for _, ref := range refs {
		size += interp.ValueSize(interp.StrV(ref.Class)) + interp.ValueSize(interp.StrV(ref.Key)) +
			s.m[ref].EncodedSize()
	}
	var e *interp.Encoder
	if cap(spare) >= size {
		e = interp.NewEncoderInto(spare)
	} else {
		e = interp.NewEncoderSize(size)
	}
	e.Value(interp.IntV(int64(len(refs))))
	for _, ref := range refs {
		e.Value(interp.StrV(ref.Class))
		e.Value(interp.StrV(ref.Key))
		s.m[ref].EncodeTo(e)
	}
	return e.Bytes()
}

// DecodeStore rebuilds a store from Encode output, laying rows out by the
// given class-layout registry. The image is outside input: a row of a class
// the registry does not know, or one naming an attribute outside its
// class's layout, is an error.
func DecodeStore(buf []byte, layouts *ir.Layouts) (*Store, error) {
	d := interp.NewDecoder(buf)
	nv, err := d.Value()
	if err != nil {
		return nil, err
	}
	s := NewStore(layouts)
	for i := int64(0); i < nv.I; i++ {
		class, err := d.Value()
		if err != nil {
			return nil, err
		}
		key, err := d.Value()
		if err != nil {
			return nil, err
		}
		layout := layouts.LayoutOf(class.Str())
		if layout == nil {
			return nil, fmt.Errorf("state: image holds a row of unknown class %s", class.Str())
		}
		row, err := d.Row(layout)
		if err != nil {
			return nil, err
		}
		s.m[interp.EntityRef{Class: class.Str(), Key: key.Str()}] = row
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("state: %d trailing bytes", d.Remaining())
	}
	return s, nil
}

// TotalEncodedSize sums serialized sizes over all entities.
func (s *Store) TotalEncodedSize() int {
	total := 0
	for _, st := range s.m {
		total += st.EncodedSize()
	}
	return total
}

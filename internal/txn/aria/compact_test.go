package aria

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
)

// The compact RWSet and Workspace (inline entries, linear scan, a map
// index past scanLimit) against the map-backed forms they replaced, kept
// here as the oracle.

// mapSet is the reference reservation set: one map per direction.
type mapSet struct{ reads, writes map[ResKey]Bits }

func newMapSet() *mapSet { return &mapSet{reads: map[ResKey]Bits{}, writes: map[ResKey]Bits{}} }

func (m *mapSet) merge(o *mapSet) {
	for k, b := range o.reads {
		m.reads[k] |= b
	}
	for k, b := range o.writes {
		m.writes[k] |= b
	}
}

func mapValidate(order []TID, sets map[TID]*mapSet) []TID {
	earlier := map[ResKey]Bits{}
	var aborts []TID
	for _, tid := range order {
		rw, ok := sets[tid]
		if !ok {
			continue
		}
		conflicted := false
		for k, b := range rw.writes {
			conflicted = conflicted || earlier[k]&b != 0
		}
		for k, b := range rw.reads {
			conflicted = conflicted || earlier[k]&b != 0
		}
		if conflicted {
			aborts = append(aborts, tid)
		}
		for k, b := range rw.writes {
			earlier[k] |= b
		}
	}
	return aborts
}

func mapOverlaps(a, b map[ResKey]Bits) bool {
	for k, bits := range a {
		if b[k]&bits != 0 {
			return true
		}
	}
	return false
}

func mapConflicts(a, b *mapSet) bool {
	return mapOverlaps(a.writes, b.writes) || mapOverlaps(a.writes, b.reads) || mapOverlaps(b.writes, a.reads)
}

// sameSet requires the compact set to hold exactly the reference's bits.
func sameSet(t *testing.T, rw *RWSet, ref *mapSet) {
	t.Helper()
	got, seen := newMapSet(), map[ResKey]bool{}
	for _, e := range rw.entries {
		if seen[e.key] {
			t.Fatalf("key %v has two entries", e.key)
		}
		seen[e.key] = true
		if e.reads != 0 { // the test never reserves zero bits
			got.reads[e.key] = e.reads
		}
		if e.writes != 0 {
			got.writes[e.key] = e.writes
		}
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("compact set %v diverges from reference %v", got, ref)
	}
	for k := range seen {
		if e := rw.find(k); e == nil || e.key != k {
			t.Fatalf("find(%v) = %v", k, e)
		}
	}
	if rw.find(ResKey{Class: 99, Key: "absent"}) != nil {
		t.Fatal("find invented an entry")
	}
}

// TestRWSetMatchesMapReference drives both forms with the same random
// reservations — set sizes from empty through inline, linear scan and
// well into the indexed spill — and requires the same contents, the same
// Validate aborts, the same pairwise Conflicts and the same union.
func TestRWSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bit := func() Bits {
		return []Bits{SlotBit(0), SlotBit(1), SlotBit(2) | SlotBit(5), EntityBit, AllBits}[rng.Intn(5)]
	}
	for iter := 0; iter < 300; iter++ {
		universe := []int{3, 12, 60}[rng.Intn(3)]
		sizes := []int{0, 1, inlineEntities, inlineEntities + 1, scanLimit, scanLimit + 1, 40}
		order := make([]TID, 2+rng.Intn(8))
		sets, refs := map[TID]*RWSet{}, map[TID]*mapSet{}
		for i := range order {
			tid := TID(i + 1)
			order[i] = tid
			if rng.Intn(8) == 0 {
				continue // a transaction that never touched this worker
			}
			rw, ref := NewRWSet(), newMapSet()
			for n := sizes[rng.Intn(len(sizes))]; n > 0; n-- {
				k := ResKey{Class: int32(rng.Intn(2)), Key: fmt.Sprint("k", rng.Intn(universe))}
				if b := bit(); rng.Intn(2) == 0 {
					rw.Read(k, b)
					ref.reads[k] |= b
				} else {
					rw.Write(k, b)
					ref.writes[k] |= b
				}
			}
			sameSet(t, rw, ref)
			sets[tid], refs[tid] = rw, ref
		}
		if got, want := Validate(order, sets), mapValidate(order, refs); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Validate = %v, reference %v", iter, got, want)
		}
		for a, ra := range sets {
			for b, rb := range sets {
				if got, want := Conflicts(ra, rb), mapConflicts(refs[a], refs[b]); got != want {
					t.Fatalf("iter %d: Conflicts(%d, %d) = %v, reference %v", iter, a, b, got, want)
				}
			}
		}
		merged, mergedRef := NewRWSet(), newMapSet()
		for _, tid := range order {
			if rw, ok := sets[tid]; ok {
				for _, e := range rw.entries {
					merged.Read(e.key, e.reads)
					merged.Write(e.key, e.writes)
				}
				mergedRef.merge(refs[tid])
			}
		}
		sameSet(t, merged, mergedRef)
	}
}

// TestWorkspaceSpillsPastInlineEntities touches 40 entities in one
// transaction — reads, slot writes, two creations — so the
// workspace runs through its inline entries, the scanned spill and the
// indexed spill, and every State handle handed out on the way must stay
// valid.
func TestWorkspaceSpillsPastInlineEntities(t *testing.T) {
	const entities = 40
	committed := newStore()
	key := func(i int) string { return fmt.Sprintf("e%02d", i) }
	for i := 0; i < entities; i++ {
		committed.PutMap(ref(key(i)), interp.MapState{"v": interp.IntV(int64(i)), "w": interp.IntV(0)})
	}
	ws := newWorkspace(committed)
	handles := make([]interp.State, entities)
	for i := range handles {
		st, ok := ws.Lookup(ref(key(i)))
		if !ok {
			t.Fatalf("lookup %s", key(i))
		}
		handles[i] = st
		if i%2 == 1 {
			set(t, st, "w", interp.IntV(int64(100+i)))
		}
	}
	if err := ws.Create(ref("fresh"), noCtor); err != nil {
		t.Fatal(err)
	}
	if err := ws.Create(ref("made"), func(made interp.State) error {
		set(t, made, "v", interp.IntV(-1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Early handles still read and write their own entity after the spill
	// and the index were built.
	for i, st := range handles {
		if v := get(t, st, "v"); v.I != int64(i) {
			t.Fatalf("handle %d reads %v", i, v)
		}
		again, _ := ws.Lookup(ref(key(i)))
		if again != st {
			t.Fatalf("second lookup of %s handed out a different entry", key(i))
		}
	}
	set(t, handles[0], "w", interp.IntV(7))

	if n := len(ws.RW.entries); n != entities+2 {
		t.Fatalf("%d reservation entries, want %d", n, entities+2)
	}
	if ws.index == nil || ws.RW.index == nil {
		t.Fatal("40 entities must have built both indexes")
	}
	written := map[string]bool{}
	ws.Written(func(r interp.EntityRef, _ bool) { written[r.Key] = true })
	if len(written) != entities/2+3 { // odd entities, e00, fresh, made
		t.Fatalf("written set: %v", written)
	}
	if ws.WriteBytes() == 0 {
		t.Fatal("write bytes")
	}
	ws.Apply(committed)
	for i := 0; i < entities; i++ {
		row, _ := committed.Lookup(ref(key(i)))
		want := int64(0)
		switch {
		case i == 0:
			want = 7
		case i%2 == 1:
			want = int64(100 + i)
		}
		if w := get(t, row, "w"); w.I != want {
			t.Fatalf("%s.w = %v after apply, want %d", key(i), w, want)
		}
		if v := get(t, row, "v"); v.I != int64(i) {
			t.Fatalf("%s.v = %v after apply", key(i), v)
		}
	}
	if !committed.Exists(ref("fresh")) {
		t.Fatal("creation not applied")
	}
	if row, ok := committed.Lookup(ref("made")); !ok || get(t, row, "v").I != -1 {
		t.Fatal("second creation not applied")
	}
}

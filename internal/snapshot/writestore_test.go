package snapshot

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/state"
)

// testLayouts lays out the classes these tests store.
func testLayouts() *ir.Layouts {
	ls := &ir.Layouts{ByClass: map[string]*ir.ClassLayout{}}
	for _, l := range []*ir.ClassLayout{
		ir.NewClassLayout("A", 0, []string{"v"}),
		ir.NewClassLayout("Reg", 1, []string{"v", "pad"}),
	} {
		ls.ByClass[l.Class] = l
		ls.ByID = append(ls.ByID, l)
	}
	return ls
}

// bigStore returns a store of n rows carrying pad payload bytes.
func bigStore(n, pad int) *state.Store {
	st := state.NewStore(testLayouts())
	for i := 0; i < n; i++ {
		st.PutMap(interp.EntityRef{Class: "Reg", Key: fmt.Sprintf("r%03d", i)}, interp.MapState{
			"v": interp.IntV(int64(i)), "pad": interp.StrV(string(make([]byte, pad))),
		})
	}
	return st
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriteStoreMatchesWriteOfEncode: the no-copy path stores exactly the
// bytes the byte-slice path does, in a buffer with no slack.
func TestWriteStoreMatchesWriteOfEncode(t *testing.T) {
	st := bigStore(16, 1<<10)
	row, _ := st.Lookup(interp.EntityRef{Class: "Reg", Key: "r003"})
	row.Encoding() // one clean row with a cached encoding among the dirty ones
	s := NewStore(testLayouts())
	id := s.Begin(1, nil)
	if err := s.Write(id, "bytes", st.Encode()); err != nil {
		t.Fatal(err)
	}
	n, err := s.WriteStore(id, "store", st)
	if err != nil {
		t.Fatal(err)
	}
	want := s.images[id]["bytes"]
	got := s.images[id]["store"]
	if !bytes.Equal(got, want) || n != len(want) || cap(got) != len(got) {
		t.Fatalf("WriteStore stored %d bytes (cap %d, returned %d), Write(Encode()) %d; equal=%v",
			len(got), cap(got), n, len(want), bytes.Equal(got, want))
	}
	if meta, _ := s.Get(id); meta.Bytes["store"] != n {
		t.Fatalf("meta records %d bytes for an image of %d", meta.Bytes["store"], n)
	}
	if _, err := s.WriteStore(id+1, "store", st); err == nil {
		t.Fatal("WriteStore into a snapshot never begun succeeded")
	}
}

// TestWriteStoreIsFirstWriteWins: a second write for the same worker — a
// duplicated or delayed snapshot request arriving after the store moved on —
// neither replaces the image nor encodes anything.
func TestWriteStoreIsFirstWriteWins(t *testing.T) {
	st := bigStore(16, 64<<10)
	s := NewStore(testLayouts())
	id := s.Begin(1, nil)
	n, err := s.WriteStore(id, "w0", st)
	if err != nil {
		t.Fatal(err)
	}
	first := s.images[id]["w0"]
	row, _ := st.Lookup(interp.EntityRef{Class: "Reg", Key: "r000"})
	row.Set("v", interp.IntV(-1))
	var again int
	if spent := allocated(func() { again, err = s.WriteStore(id, "w0", st) }); spent > uint64(n)/100 {
		t.Fatalf("a duplicate write allocated %d bytes next to an image of %d: it encoded the store", spent, n)
	}
	second := s.images[id]["w0"]
	if err != nil || again != n || &second[0] != &first[0] {
		t.Fatalf("duplicate write: err=%v, returned %d (first %d), image replaced=%v", err, again, n, &second[0] != &first[0])
	}
	restored, err := s.RestoreStore(id, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := restored.Lookup(interp.EntityRef{Class: "Reg", Key: "r000"}); !ok || got.CloneMap()["v"].I != 0 {
		t.Fatalf("restored r000 (present=%v) does not hold the value of the first write", ok)
	}
}

package snapshot

import (
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/state"
)

func TestBeginWriteRead(t *testing.T) {
	s := NewStore(testLayouts())
	id := s.Begin(5, map[string][]int64{"requests": {42}})
	if err := s.Write(id, "w0", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	img, ok := s.images[id]["w0"]
	if !ok || len(img) != 3 {
		t.Fatalf("read: %v %v", img, ok)
	}
	meta, ok := s.Get(id)
	if !ok || meta.Epoch != 5 || meta.SourceOffsets["requests"][0] != 42 {
		t.Fatalf("meta: %+v", meta)
	}
	if meta.Bytes["w0"] != 3 {
		t.Fatalf("bytes: %v", meta.Bytes)
	}
}

// A snapshot still missing worker images (e.g. a worker died before
// persisting) must never be returned by Latest — recovery would restore
// a half-written, inconsistent cut.
func TestLatestSkipsIncompleteSnapshots(t *testing.T) {
	s := NewStore(testLayouts())
	complete := s.BeginWithPending(1, nil, nil, 2)
	if err := s.Write(complete, "w0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(complete, "w1", []byte{2}); err != nil {
		t.Fatal(err)
	}
	half := s.BeginWithPending(2, nil, nil, 2)
	if err := s.Write(half, "w0", []byte{3}); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Latest()
	if !ok || m.ID != complete {
		t.Fatalf("latest must skip the half-written snapshot: %+v %v", m, ok)
	}
	if err := s.Write(half, "w1", []byte{4}); err != nil {
		t.Fatal(err)
	}
	if m, _ := s.Latest(); m.ID != half {
		t.Fatalf("completed snapshot must become latest: %+v", m)
	}
}

func TestLatest(t *testing.T) {
	s := NewStore(testLayouts())
	if _, ok := s.Latest(); ok {
		t.Fatal("empty store has no latest")
	}
	s.Begin(1, nil)
	id2 := s.Begin(2, nil)
	m, ok := s.Latest()
	if !ok || m.ID != id2 {
		t.Fatalf("latest: %+v", m)
	}
	if s.Count() != 2 {
		t.Fatalf("count: %d", s.Count())
	}
}

func TestWriteUnknownSnapshot(t *testing.T) {
	s := NewStore(testLayouts())
	if err := s.Write(99, "w0", nil); err == nil {
		t.Fatal("unknown snapshot must fail")
	}
}

func TestRestoreStore(t *testing.T) {
	snaps := NewStore(testLayouts())
	st := state.NewStore(testLayouts())
	st.PutMap(interp.EntityRef{Class: "A", Key: "k"}, interp.MapState{"v": interp.IntV(7)})
	id := snaps.Begin(1, nil)
	if err := snaps.Write(id, "w0", st.Encode()); err != nil {
		t.Fatal(err)
	}
	back, err := snaps.RestoreStore(id, "w0")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.Lookup(interp.EntityRef{Class: "A", Key: "k"})
	v, has := got.CloneMap()["v"]
	if !ok || !has || v.I != 7 {
		t.Fatalf("restored: %v", got)
	}
	// A worker with no image restores to empty.
	empty, err := snaps.RestoreStore(id, "w-unknown")
	if err != nil || len(empty.Refs()) != 0 {
		t.Fatalf("empty restore: %v %v", len(empty.Refs()), err)
	}
}

func TestImagesAreCopied(t *testing.T) {
	s := NewStore(testLayouts())
	id := s.Begin(1, nil)
	buf := []byte{1, 2, 3}
	if err := s.Write(id, "w0", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutating the caller's buffer must not corrupt the store
	img := s.images[id]["w0"]
	if img[0] != 1 {
		t.Fatal("image aliased caller buffer")
	}
}

func TestMultipleSnapshotsRetained(t *testing.T) {
	s := NewStore(testLayouts())
	id1 := s.Begin(1, map[string][]int64{"requests": {10}})
	id2 := s.Begin(2, map[string][]int64{"requests": {20}})
	if err := s.Write(id1, "w0", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id2, "w0", []byte("new")); err != nil {
		t.Fatal(err)
	}
	old := s.images[id1]["w0"]
	if string(old) != "old" {
		t.Fatal("older snapshots must be retained")
	}
}

// A snapshot image is immutable once written: a duplicated or delayed
// snapshot request re-arriving after later batches committed must not
// overwrite the aligned cut with newer state.
func TestWriteIsFirstWriteWins(t *testing.T) {
	s := NewStore(testLayouts())
	id := s.Begin(1, nil)
	if err := s.Write(id, "w0", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, "w0", []byte{9, 9, 9, 9}); err != nil {
		t.Fatalf("duplicate write must be an accepted no-op, got %v", err)
	}
	img, ok := s.images[id]["w0"]
	if !ok || len(img) != 3 || img[0] != 1 {
		t.Fatalf("image was overwritten: %v", img)
	}
	meta, _ := s.Get(id)
	if meta.Bytes["w0"] != 3 {
		t.Fatalf("bytes re-accounted on duplicate write: %v", meta.Bytes)
	}
}

// Compact retires old snapshots while preserving the newest complete
// restore points, skipping over torn cuts, and keeping Count (the id
// bound) stable.
func TestCompactRetiresOldSnapshots(t *testing.T) {
	s := NewStore(testLayouts())
	var ids []int64
	for i := 0; i < 6; i++ {
		id := s.BeginWithPending(int64(i), nil, nil, 1)
		if err := s.Write(id, "w0", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	torn := s.BeginWithPending(6, nil, nil, 2) // one image missing: torn forever
	if err := s.Write(torn, "w0", []byte{9}); err != nil {
		t.Fatal(err)
	}

	if got := s.Compact(0); got != 0 {
		t.Fatalf("Compact(0) retired %d", got)
	}
	retired := s.Compact(2)
	if retired != 4 {
		t.Fatalf("retired %d snapshots, want 4", retired)
	}
	if s.Count() != 7 {
		t.Fatalf("Count changed to %d", s.Count())
	}
	if s.Retained() != 3 { // 2 complete + the newer torn one
		t.Fatalf("retained %d", s.Retained())
	}
	// The newest complete snapshot is still restorable; retired ones are
	// gone.
	latest, ok := s.Latest()
	if !ok || latest.ID != ids[5] {
		t.Fatalf("latest after compact: %+v ok=%v", latest, ok)
	}
	if _, ok := s.images[ids[5]]["w0"]; !ok {
		t.Fatal("latest complete snapshot lost its image")
	}
	if _, ok := s.images[ids[0]]["w0"]; ok {
		t.Fatal("retired snapshot still readable")
	}
	if _, ok := s.Get(ids[1]); ok {
		t.Fatal("retired meta still present")
	}
	// A second compaction with a bigger budget than complete snapshots
	// keeps everything.
	if got := s.Compact(5); got != 0 {
		t.Fatalf("over-budget compact retired %d", got)
	}
}

package snapshot

import (
	"bytes"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
)

// spareBytes is the capacity of the retired image storage s holds for the
// workers' next writes.
func spareBytes(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, img := range s.spares {
		n += cap(img)
	}
	return n
}

// recycled takes two snapshots of st for worker w0, retires the older one
// once the third has begun and returns the store, the third's id and the
// retired image's storage.
func recycled(t *testing.T, rows, pad int) (s *Store, id int64, retired []byte) {
	t.Helper()
	st := bigStore(rows, pad)
	s = NewStore(testLayouts())
	for i := 0; i < 2; i++ {
		id := s.BeginWithPending(int64(i), nil, nil, 1)
		if _, err := s.WriteStore(id, "w0", st); err != nil {
			t.Fatal(err)
		}
	}
	retired = s.images[1]["w0"]
	id = s.BeginWithPending(2, nil, nil, 1)
	if got := s.Compact(1); got != 1 {
		t.Fatalf("Compact(1) retired %d snapshots, want 1", got)
	}
	if spareBytes(s) != cap(retired) {
		t.Fatalf("%d spare bytes held after retiring an image of %d", spareBytes(s), cap(retired))
	}
	return s, id, retired
}

// TestRecycleEncodesIntoTheRetiredImage: once a worker's oldest image
// retires, its next WriteStore encodes into that image's storage — the
// bytes Encode gives, for next to no allocation — and holds no spare after.
func TestRecycleEncodesIntoTheRetiredImage(t *testing.T) {
	s, id, retired := recycled(t, 16, 64<<10)
	st := bigStore(16, 64<<10)
	row, _ := st.Lookup(interp.EntityRef{Class: "Reg", Key: "r005"})
	row.Set("v", interp.IntV(-5)) // the partition wrote between the snapshots
	var n int
	var err error
	spent := allocated(func() { n, err = s.WriteStore(id, "w0", st) })
	if err != nil {
		t.Fatal(err)
	}
	if spent > uint64(n)/100 {
		t.Fatalf("a write into a recycled image of %d bytes allocated %d (over 1%%)", n, spent)
	}
	got := s.images[id]["w0"]
	if !bytes.Equal(got, st.Encode()) {
		t.Fatal("the image encoded into recycled storage differs from Encode()")
	}
	if &got[0] != &retired[0] {
		t.Fatal("the write did not reuse the retired image's storage")
	}
	if spareBytes(s) != 0 {
		t.Fatalf("%d spare bytes still held after the worker wrote", spareBytes(s))
	}
}

// TestRecycleSkipsASpareTooSmall: a partition whose rows grew past its
// retired image gets a fresh buffer sized to the new image, and the spare
// is not kept idling either.
func TestRecycleSkipsASpareTooSmall(t *testing.T) {
	s, id, retired := recycled(t, 16, 1<<10)
	grown := bigStore(16, 2<<10)
	n, err := s.WriteStore(id, "w0", grown)
	if err != nil {
		t.Fatal(err)
	}
	got := s.images[id]["w0"]
	if !bytes.Equal(got, grown.Encode()) || cap(got) != n {
		t.Fatalf("a grown image stored %d bytes (cap %d), Encode gives %d", len(got), cap(got), len(grown.Encode()))
	}
	if cap(retired) >= n || &got[0] == &retired[0] {
		t.Fatalf("a spare of %d bytes was used for an image of %d", cap(retired), n)
	}
	if spareBytes(s) != 0 {
		t.Fatalf("%d spare bytes still held after the worker wrote", spareBytes(s))
	}
}

// TestRetiredSnapshotIsNotFound: neither Read nor RestoreStore serves a
// retired snapshot — its storage may already hold a newer image — while an
// unwritten worker of a held snapshot still restores to empty.
func TestRetiredSnapshotIsNotFound(t *testing.T) {
	s, id, _ := recycled(t, 4, 16)
	if _, ok := s.images[1]["w0"]; ok {
		t.Fatal("Read served a retired snapshot")
	}
	if _, err := s.RestoreStore(1, "w0"); err == nil {
		t.Fatal("RestoreStore restored a retired snapshot")
	}
	if st, err := s.RestoreStore(id, "w0"); err != nil || len(st.Refs()) != 0 {
		t.Fatalf("a held snapshot without the worker's image: %v, %d rows", err, len(st.Refs()))
	}
}

// TestCompactKeepsNoSpare: a retired image no begun snapshot awaits — the
// store compacted after a seal, or the worker already wrote into the
// snapshot in flight — is dropped, so nothing is held between snapshots
// and the next write allocates its image afresh.
func TestCompactKeepsNoSpare(t *testing.T) {
	st := bigStore(16, 16<<10)
	s := NewStore(testLayouts())
	snap := func(epoch int64, workers ...string) int64 {
		id := s.BeginWithPending(epoch, nil, nil, 2)
		for _, w := range workers {
			if _, err := s.WriteStore(id, w, st); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	snap(0, "w0", "w1")
	snap(1, "w0", "w1")
	s.Compact(1)
	if spareBytes(s) != 0 {
		t.Fatalf("Compact after a seal held %d spare bytes", spareBytes(s))
	}
	snap(2, "w0", "w1")
	w1 := s.images[2]["w1"]
	inFlight := snap(3, "w0")
	s.Compact(1) // retires snapshot 2; snapshot 4 awaits w1 only
	if spareBytes(s) != cap(w1) {
		t.Fatalf("%d spare bytes held, want w1's retired image (%d): only w1 is awaited", spareBytes(s), cap(w1))
	}
	if _, err := s.WriteStore(inFlight, "w1", st); err != nil {
		t.Fatal(err)
	}
	s.Compact(1)
	id := s.BeginWithPending(4, nil, nil, 2)
	var n int
	if spent := allocated(func() { n, _ = s.WriteStore(id, "w0", st) }); spent < uint64(n) {
		t.Fatalf("a write after Compact allocated %d bytes for an image of %d: it reused storage", spent, n)
	}
}

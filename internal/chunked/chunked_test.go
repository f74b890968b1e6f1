package chunked

import (
	"testing"
	"unsafe"
)

// TestSeqAcrossChunks pushes, reads and truncates around chunk ends: every
// element reads back, a truncated element is zeroed in its chunk, and the
// pushes after a truncation refill the kept chunks without allocating.
func TestSeqAcrossChunks(t *testing.T) {
	per := Len[*int]()
	var s Seq[*int]
	vals := make([]int, 3*per+1)
	for i := range vals {
		vals[i] = i
		s.Push(&vals[i])
	}
	for _, i := range []int{0, per - 1, per, per + 1, 3 * per} {
		if got := *s.At(i); got != &vals[i] {
			t.Fatalf("At(%d) = %v, want element %d", i, got, i)
		}
	}
	for _, n := range []int{2*per + 1, per, per - 1, 0} {
		s.Truncate(n)
		if s.Len() != n {
			t.Fatalf("Truncate(%d): Len %d", n, s.Len())
		}
		for c, chunk := range s.chunks {
			for j, v := range chunk {
				if i := c*per + j; i >= n && v != nil {
					t.Fatalf("Truncate(%d): dropped element %d still holds %d", n, i, *v)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range vals {
			s.Push(&vals[i])
		}
		s.Truncate(0)
	})
	if allocs != 0 {
		t.Errorf("refilling kept chunks allocated %.0f times", allocs)
	}
	for _, bad := range []func(){func() { s.At(0) }, func() { s.At(-1) }, func() { s.Truncate(1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an access past the end did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestChunkFillsItsSizeClass: for elements from a byte to 1,280 bytes, a
// chunk takes the 8 KB size class (the class below holds 6,912 bytes).
func TestChunkFillsItsSizeClass(t *testing.T) {
	check := func(name string, per int, size uintptr) {
		if n := uintptr(per) * size; n <= 6912 || n > chunkBytes {
			t.Errorf("a chunk of %s is %d bytes, want it in the 8 KB size class (6,913–8,192)", name, n)
		}
	}
	check("byte", Len[byte](), 1)
	check("[40]byte", Len[[40]byte](), 40)
	check("[48]byte", Len[[48]byte](), 48)
	check("[1280]byte", Len[[1280]byte](), 1280)
	check("*int", Len[*int](), unsafe.Sizeof((*int)(nil)))
}

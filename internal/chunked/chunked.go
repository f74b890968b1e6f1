// Package chunked holds the append-only sequence the durable logs keep
// their records in: the replayable source (queue.Partition) and the
// simulated journal device (dlog.SimLog).
//
// A slice grown by append reallocates and copies itself about 1.25× at a
// time once it is large, so a log kept in one allocates about five times
// its final size over its life. A Seq instead fills fixed-length chunks
// that never move: an append allocates at most one chunk, and a truncated
// sequence keeps its chunks for the appends that follow.
package chunked

import "unsafe"

// chunkBytes is the storage a chunk holds. A chunk's length is the number
// of elements that fit, so it fills the 8 KB size class for any element
// up to 1,280 bytes (the class below holds 6,912).
const chunkBytes = 8192

// Len returns the elements a chunk of T holds.
func Len[T any]() int {
	var z T
	return chunkBytes / max(1, int(unsafe.Sizeof(z)))
}

// Seq is an append-only sequence of T indexed from 0. The zero value is
// empty and ready to use. Pointers At returns stay valid until the element
// is truncated away.
type Seq[T any] struct {
	chunks [][]T // each Len[T]() long; those past n are kept for reuse
	n      int
}

// Len returns the number of elements.
func (s *Seq[T]) Len() int { return s.n }

// At returns the element at i, which must be below Len.
func (s *Seq[T]) At(i int) *T {
	if uint(i) >= uint(s.n) {
		panic("chunked: index out of range")
	}
	per := Len[T]()
	return &s.chunks[i/per][i%per]
}

// Push appends v.
func (s *Seq[T]) Push(v T) {
	per := Len[T]()
	c := s.n / per
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, per))
	}
	s.chunks[c][s.n%per] = v
	s.n++
}

// Truncate keeps the first n elements. The dropped ones are zeroed, so
// they pin nothing, and their chunks are refilled by later pushes.
func (s *Seq[T]) Truncate(n int) {
	if n < 0 || n > s.n {
		panic("chunked: truncate out of range")
	}
	per := Len[T]()
	for i := n; i < s.n; {
		c := s.chunks[i/per]
		end := min(len(c), i%per+s.n-i)
		clear(c[i%per : end])
		i += end - i%per
	}
	s.n = n
}

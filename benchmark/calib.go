package main

import "time"

// The calibration kernel is a fixed amount of work of the kind the
// simulator's event loop does — pops and pushes on a binary heap of
// 200 000 events and scattered updates of a 16 MB table — that depends on
// nothing in the repository: no package of it, and no allocation, so the
// state the garbage collector is in cannot reach it either. Its timing
// moves only with the speed of the machine at that moment. On the shared
// two-core box this benchmark was sized on, that speed changes by up to
// 60 % for seconds at a time (another tenant's burst) and drifts by several
// per cent between processes; a kernel whose working set overflows the L2
// cache, as the simulator's does, tracks both (see the README's noise
// study). Host-time metrics are therefore reported at the machine speed at
// which the kernel takes calibNominal: each timing is divided by
// (kernel time beside it / calibNominal).
const calibNominal = 28 * time.Millisecond

type calibEvent struct{ at, seq int64 }

// The kernel's working set, allocated once and free of pointers: the
// collector never scans it.
var (
	calibHeap  = make([]calibEvent, 0, 1<<18)
	calibTable = make([]int32, 1<<22)
	calibSink  int64
)

// calibFootprint is the heap the working set occupies, which the live-heap
// metric leaves out.
var calibFootprint = uint64(cap(calibHeap))*16 + uint64(len(calibTable))*4

func calibUp(h []calibEvent, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func calibDown(h []calibEvent, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			l = r
		}
		if h[i].at <= h[l].at {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// calibrate runs the kernel once and returns how long it took.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252) // xorshift64: the same sequence every run
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := calibHeap[:0]
	for i := 0; i < 200_000; i++ {
		h = append(h, calibEvent{at: int64(next() >> 34)})
		calibUp(h, len(h)-1)
	}
	for i := 0; i < 100_000; i++ {
		e := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		calibDown(h, 0)
		for j := 0; j < 8; j++ {
			calibTable[next()&(1<<22-1)]++
		}
		h = append(h, calibEvent{at: e.at + int64(next()>>44), seq: e.seq + 1})
		calibUp(h, len(h)-1)
	}
	calibSink += h[0].at
	return time.Since(t0)
}

// speedometer reads the machine's speed between consecutive pieces of
// work: kernel, work, kernel, work, kernel, each piece of work judged by
// the two kernel runs beside it.
type speedometer struct{ last time.Duration }

func newSpeedometer() *speedometer { return &speedometer{last: calibrate()} }

// lap runs the kernel and returns how much slower than nominal the machine
// was since the previous kernel run: a host timing taken in between is
// divided by it.
func (s *speedometer) lap() float64 {
	next := calibrate()
	slow := float64(s.last+next) / 2 / float64(calibNominal)
	s.last = next
	return slow
}

package queue

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"statefulentities.dev/stateflow/internal/chunked"
)

func newLog(t *testing.T, topic string, parts int) *Log {
	t.Helper()
	l := NewLog()
	if err := l.CreateTopic(topic, parts); err != nil {
		t.Fatal(err)
	}
	return l
}

// records counts what partition p of topic holds, reading it through Fetch
// until an offset reads nothing.
func records(t *testing.T, l *Log, topic string, p int) int64 {
	t.Helper()
	for off := int64(0); ; off++ {
		_, ok, err := l.Fetch(topic, p, off)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return off
		}
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	l := newLog(t, "in", 2)
	p, off, err := l.Produce("in", "k1", "hello")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := l.Fetch("in", p, off)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if rec.Payload.(string) != "hello" || rec.Key != "k1" {
		t.Fatalf("record: %+v", rec)
	}
}

func TestKeyPartitioningIsStable(t *testing.T) {
	l := newLog(t, "in", 4)
	p1, _, _ := l.Produce("in", "same-key", 1)
	p2, _, _ := l.Produce("in", "same-key", 2)
	if p1 != p2 {
		t.Fatalf("same key landed on %d and %d", p1, p2)
	}
}

func TestOffsetsAreDense(t *testing.T) {
	l := newLog(t, "in", 1)
	for i := 0; i < 5; i++ {
		_, off, err := l.Produce("in", "k", i)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset %d, want %d", off, i)
		}
	}
	if end := records(t, l, "in", 0); end != 5 {
		t.Fatalf("end: %d", end)
	}
}

func TestReplayFromOffset(t *testing.T) {
	l := newLog(t, "in", 1)
	for i := 0; i < 10; i++ {
		if _, _, err := l.Produce("in", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the suffix starting at 6.
	var replayed []int
	for off := int64(6); ; off++ {
		rec, ok, err := l.Fetch("in", 0, off)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		replayed = append(replayed, rec.Payload.(int))
	}
	if len(replayed) != 4 || replayed[0] != 6 || replayed[3] != 9 {
		t.Fatalf("replayed: %v", replayed)
	}
}

func TestErrors(t *testing.T) {
	l := newLog(t, "in", 1)
	if err := l.CreateTopic("in", 1); err == nil {
		t.Fatal("duplicate topic must fail")
	}
	if err := l.CreateTopic("bad", 0); err == nil {
		t.Fatal("zero partitions must fail")
	}
	if _, _, err := l.Produce("nope", "k", 1); err == nil {
		t.Fatal("unknown topic must fail")
	}
	if _, _, err := l.Fetch("in", 9, 0); err == nil {
		t.Fatal("bad partition must fail")
	}
	if _, _, err := l.Fetch("nope", 0, 0); err == nil {
		t.Fatal("unknown topic must fail")
	}
}

func TestFetchPastEnd(t *testing.T) {
	l := newLog(t, "in", 1)
	_, ok, err := l.Fetch("in", 0, 0)
	if err != nil || ok {
		t.Fatalf("empty fetch: ok=%v err=%v", ok, err)
	}
}

func TestConcurrentProducers(t *testing.T) {
	l := newLog(t, "in", 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := l.Produce("in", fmt.Sprintf("k%d-%d", w, i), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		total += records(t, l, "in", p)
	}
	if total != 800 {
		t.Fatalf("records: %d", total)
	}
}

func TestPartitionForDistribution(t *testing.T) {
	l := newLog(t, "in", 4)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		p, _, err := l.Produce("in", fmt.Sprintf("key-%d", i), i)
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("keys hash to only %d partitions", len(seen))
	}
}

// TestPartitionChunkBoundaries reads a partition back at one record
// chunk's length less one, exactly and plus one: every offset holds its
// record, End is the count, and the offset past it reads nothing.
func TestPartitionChunkBoundaries(t *testing.T) {
	per := chunked.Len[Record]()
	for _, n := range []int{per - 1, per, per + 1, 2 * per} {
		var p Partition
		for i := range n {
			if off := p.Append(fmt.Sprint("k", i), i); off != int64(i) {
				t.Fatalf("n=%d: append %d at offset %d", n, i, off)
			}
		}
		if p.End() != int64(n) {
			t.Fatalf("n=%d: End %d", n, p.End())
		}
		for i := range n {
			rec, ok := p.Read(int64(i))
			if !ok || rec.Offset != int64(i) || rec.Key != fmt.Sprint("k", i) || rec.Payload != i {
				t.Fatalf("n=%d: offset %d reads %+v, %v", n, i, rec, ok)
			}
		}
		for _, off := range []int64{-1, int64(n), int64(n) + 1} {
			if rec, ok := p.Read(off); ok {
				t.Fatalf("n=%d: offset %d reads %+v", n, off, rec)
			}
		}
	}
}

// TestAllocsPerPartitionChunk pins the source log's storage: a record
// chunk's length of appends allocates at most one chunk, where a slice
// grown by append copied itself over and over.
func TestAllocsPerPartitionChunk(t *testing.T) {
	per := chunked.Len[Record]()
	var p Partition
	payload := any(&Record{})
	allocs := testing.AllocsPerRun(50, func() {
		for range per {
			p.Append("k", payload)
		}
	})
	t.Logf("%.0f allocations per %d appends", allocs, per)
	if allocs > 1 {
		t.Errorf("%.0f allocations per %d appends, want at most one chunk", allocs, per)
	}
}

// TestPartitionChunkFillsItsSizeClass pins a record chunk in the 8 KB size
// class, so it wastes no more than a record's worth of it.
func TestPartitionChunkFillsItsSizeClass(t *testing.T) {
	n := uintptr(chunked.Len[Record]()) * unsafe.Sizeof(Record{})
	if n <= 6912 || n > 8192 {
		t.Errorf("a record chunk is %d bytes, want it in the 8 KB size class (6,913–8,192)", n)
	}
	t.Logf("a record chunk is %d bytes for %d records", n, chunked.Len[Record]())
}

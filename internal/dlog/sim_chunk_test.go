package dlog

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"statefulentities.dev/stateflow/internal/chunked"
)

// payload is record i's payload: its number, padded to size bytes.
func payload(i, size int) []byte {
	p := fmt.Appendf(nil, "r%d.", i)
	return append(p, bytes.Repeat([]byte{byte(i)}, max(0, size-len(p)))...)
}

// checkImage compares a recovered image with the payloads want.
func checkImage(t *testing.T, what string, got Recovered, want [][]byte) {
	t.Helper()
	if len(got.Records) != len(want) {
		t.Fatalf("%s: %d records recovered, want %d", what, len(got.Records), len(want))
	}
	for i, r := range got.Records {
		if !bytes.Equal(r.Data, want[i]) {
			t.Fatalf("%s: record %d = %.20q (%d bytes), want %.20q (%d bytes)", what, i, r.Data, len(r.Data), want[i], len(want[i]))
		}
	}
}

// TestSimLogChunkBoundaries appends one record chunk's length less one,
// exactly and plus one, with payloads that also fill payload chunks to
// their end and payloads large enough to get their own allocation, and
// reads each log back whole.
func TestSimLogChunkBoundaries(t *testing.T) {
	per := chunked.Len[simRec]()
	for _, n := range []int{per - 1, per, per + 1, 2 * per} {
		for _, size := range []int{8, payloadChunk / 16, payloadChunk/4 - 1, payloadChunk/4 + 1} {
			l := NewSimLog()
			var want [][]byte
			for i := range n {
				want = append(want, payload(i, size))
				if lsn := l.Append(Record{Kind: 1, At: int64(i), Data: want[i]}); lsn != int64(i+1) {
					t.Fatalf("n=%d size=%d: append %d got LSN %d", n, size, i, lsn)
				}
			}
			if l.recs.Len() != n {
				t.Fatalf("n=%d size=%d: %d records", n, size, l.recs.Len())
			}
			l.SyncNow(time.Millisecond)
			img := l.Recover(time.Millisecond)
			checkImage(t, fmt.Sprintf("n=%d size=%d", n, size), img, want)
			for i, r := range img.Records {
				if r.Kind != 1 || r.At != int64(i) {
					t.Fatalf("n=%d size=%d: record %d is kind %d at %d", n, size, i, r.Kind, r.At)
				}
			}
		}
	}
}

// TestSimLogCrashAtAChunkBoundary: a crash whose durable prefix ends
// exactly at a record chunk's end drops the whole next chunk's records,
// and the appends after it refill that chunk from its first slot.
func TestSimLogCrashAtAChunkBoundary(t *testing.T) {
	per := chunked.Len[simRec]()
	l := NewSimLog()
	var want [][]byte
	for i := range per {
		want = append(want, payload(i, 40))
		l.Append(Record{Kind: 1, Data: want[i]})
	}
	l.SyncNow(time.Millisecond)
	for i := range 5 {
		l.Append(Record{Kind: 1, Data: payload(1000+i, 40)})
	}
	l.SyncAt(3 * time.Millisecond)
	l.Crash(2 * time.Millisecond)
	if l.recs.Len() != per {
		t.Fatalf("after the crash: %d records, want the %d durable ones", l.recs.Len(), per)
	}
	if s := l.Stats(); s.TornTails != 1 || s.LostRecords != 4 {
		t.Fatalf("crash: %d torn, %d lost, want 1 and 4", s.TornTails, s.LostRecords)
	}
	for i := range per + 3 {
		want = append(want, payload(2000+i, 40))
		l.Append(Record{Kind: 2, Data: want[len(want)-1]})
	}
	l.SyncNow(4 * time.Millisecond)
	checkImage(t, "after the crash and more appends", l.Recover(4*time.Millisecond), want)
}

// TestSimLogRecoveredImageIsACopy: the image Recover returns keeps its
// bytes after the log checkpoints and overwrites the same chunks, and
// after the caller appends to a recovered payload.
func TestSimLogRecoveredImageIsACopy(t *testing.T) {
	l := NewSimLog()
	l.Checkpoint(0, []byte("base-one"))
	var want [][]byte
	for i := range 10 {
		want = append(want, payload(i, 100))
		l.Append(Record{Kind: 1, Data: want[i]})
	}
	l.SyncNow(time.Millisecond)
	img := l.Recover(time.Millisecond)
	img.Records[0].Data = append(img.Records[0].Data, "xx"...) // must not run into record 1

	l.Checkpoint(2*time.Millisecond, []byte("BASE-TWO"))
	for i := range 20 {
		l.Append(Record{Kind: 1, Data: payload(500+i, 100)})
	}
	l.SyncNow(3 * time.Millisecond)
	if string(img.Checkpoint) != "base-one" {
		t.Fatalf("recovered checkpoint now reads %q", img.Checkpoint)
	}
	img.Records[0].Data = img.Records[0].Data[:len(want[0])]
	checkImage(t, "an image recovered before a checkpoint", img, want)
}

// TestAllocsPerSimLogChunk pins the log's storage: a record chunk's length
// of appends allocates at most one chunk (payload chunks are rarer still),
// and once the log has grown to its peak, appending and checkpointing
// allocate nothing.
func TestAllocsPerSimLogChunk(t *testing.T) {
	per := chunked.Len[simRec]()
	l := NewSimLog()
	rec := Record{Kind: 1, Data: make([]byte, 24)}
	allocs := testing.AllocsPerRun(50, func() {
		for range per {
			l.Append(rec)
		}
	})
	t.Logf("%.0f allocations per %d appends", allocs, per)
	if allocs > 1 {
		t.Errorf("%.0f allocations per %d appends, want at most one chunk", allocs, per)
	}
	base := make([]byte, 4096)
	allocs = testing.AllocsPerRun(20, func() {
		for range 3 * per {
			l.Append(rec)
		}
		l.SyncNow(0)
		l.Checkpoint(0, base)
	})
	t.Logf("%.0f allocations per %d appends and a checkpoint after the peak", allocs, 3*per)
	if allocs != 0 {
		t.Errorf("%.0f allocations per %d appends and a checkpoint: the checkpoint does not reuse the log's storage", allocs, 3*per)
	}
}

// TestSimLogChunksFillTheirSizeClass pins the storage's sizes: a record
// chunk takes the 8 KB size class and a payload chunk is 32 KB, the
// largest small-object class, so neither wastes most of a class.
func TestSimLogChunksFillTheirSizeClass(t *testing.T) {
	n := uintptr(chunked.Len[simRec]()) * unsafe.Sizeof(simRec{})
	if n <= 6912 || n > 8192 {
		t.Errorf("a record chunk is %d bytes, want it in the 8 KB size class (6,913–8,192)", n)
	}
	if payloadChunk != 32768 {
		t.Errorf("a payload chunk is %d bytes, want 32,768", payloadChunk)
	}
	t.Logf("a record chunk is %d bytes for %d records; a payload chunk %d bytes", n, chunked.Len[simRec](), payloadChunk)
}

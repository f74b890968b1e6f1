package dlog

import (
	"time"

	"statefulentities.dev/stateflow/internal/chunked"
)

// SimLog is the deterministic in-simulation durable log. It lives outside
// the simulated component that writes it (like the snapshot store and the
// replayable source, it models an attached durable device), so its
// contents survive a sim.Cluster crash of the owner — with one crucial
// exception that models real storage: appends not yet covered by a
// completed sync when the crash lands do not survive. The first of them
// becomes a torn tail (present on the medium but detectably incomplete;
// recovery discards it), the rest are lost outright.
//
// Durability is driven by explicit sync points:
//
//   - SyncNow(now) models a blocking fsync: everything appended so far is
//     durable at now (the caller charges the CPU stall).
//   - SyncAt(completes) models group commit: everything appended so far
//     becomes durable when the virtual clock reaches completes — the
//     caller schedules its continuation (e.g. releasing responses) at
//     that instant and must treat the records as volatile until then.
//
// Crash(at) applies the device's crash contract at a virtual instant; the
// owner wires it to the cluster's crash hook. Recover(now) returns the
// durable image. All methods are single-threaded, like the simulator.
//
// Storage: records sit in fixed-length chunks (chunked.Seq) and their
// payloads are copied into payloadChunk-byte chunks filled in order; a
// payload over a quarter of a chunk gets an allocation of its own. A
// checkpoint rewinds both and overwrites the base's storage in place, so a
// log that checkpoints stops allocating once it has grown to its peak.
// Recover copies what it returns: no slice into a chunk leaves the log.
type SimLog struct {
	base    []byte // latest durable checkpoint payload
	hasBase bool

	recs chunked.Seq[simRec]
	// bufs are the payload chunks, each payloadChunk bytes of capacity:
	// bufs[fill] is being filled, those before it are full and those after
	// it empty, kept from before the last checkpoint.
	bufs [][]byte
	fill int
	// nextLSN numbers appends monotonically across the log's whole life —
	// checkpoints compact records away but never reuse their LSNs, so a
	// caller can order its own bookkeeping against sync completions.
	nextLSN int64
	stats   Stats
}

type simRec struct {
	rec Record
	// durableAt is the virtual time the record's covering sync completes;
	// volatile (no sync issued yet) while negative.
	durableAt time.Duration
}

const volatile = time.Duration(-1)

// payloadChunk is the capacity of a payload chunk: 32 KB, the largest
// small-object size class.
const payloadChunk = 32 << 10

// NewSimLog returns an empty simulated durable log.
func NewSimLog() *SimLog { return &SimLog{} }

// Append adds a record to the volatile tail and returns its LSN
// (monotonic across checkpoints). The record is NOT durable until a
// subsequent sync point completes.
func (l *SimLog) Append(rec Record) int64 {
	l.recs.Push(simRec{rec: Record{Kind: rec.Kind, At: rec.At, Data: l.store(rec.Data)}, durableAt: volatile})
	l.stats.Appends++
	l.stats.AppendedBytes += len(rec.Data)
	l.nextLSN++
	return l.nextLSN
}

// store copies a payload into the payload chunks and returns the copy.
func (l *SimLog) store(p []byte) []byte {
	switch {
	case len(p) == 0:
		return nil
	case len(p) > payloadChunk/4:
		return append([]byte(nil), p...)
	}
	if l.fill < len(l.bufs) && len(l.bufs[l.fill])+len(p) > payloadChunk {
		l.fill++
	}
	if l.fill == len(l.bufs) {
		l.bufs = append(l.bufs, make([]byte, 0, payloadChunk))
	}
	b := l.bufs[l.fill]
	n := len(b)
	b = append(b, p...)
	l.bufs[l.fill] = b
	return b[n:len(b):len(b)]
}

// SyncNow makes every appended record durable at now (blocking fsync).
func (l *SimLog) SyncNow(now time.Duration) { l.syncAll(now) }

// SyncAt issues a group-commit sync completing at the given virtual time
// and returns the LSN of the last record it covers. Records covered by
// the sync become durable only if the owner survives past completes.
func (l *SimLog) SyncAt(completes time.Duration) int64 {
	l.syncAll(completes)
	return l.nextLSN
}

// syncAll gives every record the completion time min(its own, at).
// Completion times never decrease along the log — a record has been
// covered by every sync its successors have, Crash keeps a prefix and
// Append adds a volatile tail — so the records a sync can still change
// (volatile, or completing later than at) form a suffix, and the walk
// stops at the first record that is already settled by then.
func (l *SimLog) syncAll(at time.Duration) {
	l.stats.Syncs++
	for i := l.recs.Len() - 1; i >= 0; i-- {
		r := l.recs.At(i)
		if d := r.durableAt; d != volatile && d <= at {
			break
		}
		r.durableAt = at
	}
}

// Checkpoint atomically replaces the log's contents with a checkpoint
// payload: the payload becomes the new durable base and every record is
// compacted away. The caller invokes it from a single handler (and
// charges the sync cost), which is what makes atomicity honest in the
// simulation; the byte-level torn-checkpoint cases are exercised by the
// file-backed implementation. The compacted records' chunks and the
// base's storage are reused.
func (l *SimLog) Checkpoint(now time.Duration, payload []byte) {
	l.base = append(l.base[:0], payload...)
	l.hasBase = true
	l.stats.Checkpoints++
	l.stats.Compacted += l.recs.Len()
	l.stats.Syncs++
	l.recs.Truncate(0)
	for i := range l.bufs[:min(l.fill+1, len(l.bufs))] {
		l.bufs[i] = l.bufs[i][:0]
	}
	l.fill = 0
}

// Crash applies the device crash contract at virtual time at: records
// whose covering sync completed by then survive; the first record still
// in flight becomes a torn tail (detected and discarded — it never
// reappears in Recover), the rest are lost. The dropped records are
// zeroed; their payload bytes stay unused until the next checkpoint.
func (l *SimLog) Crash(at time.Duration) {
	keep, n := 0, l.recs.Len()
	for ; keep < n; keep++ {
		if d := l.recs.At(keep).durableAt; d == volatile || d > at {
			break
		}
	}
	if keep == n {
		return
	}
	l.stats.TornTails++
	l.stats.LostRecords += n - keep - 1
	l.recs.Truncate(keep)
}

// Recover returns the durable image at now: the latest checkpoint payload
// plus the durable records after it. Any append whose sync has not
// completed by now is treated exactly like a crash at now would treat it
// (first torn, rest lost) — recovering is indistinguishable from power
// loss. The image is a copy: it stays valid whatever the log does next.
func (l *SimLog) Recover(now time.Duration) Recovered {
	l.Crash(now)
	var out Recovered
	if l.hasBase {
		out.Checkpoint = append([]byte(nil), l.base...)
	}
	for i := range l.recs.Len() {
		r := l.recs.At(i).rec
		out.Records = append(out.Records, Record{Kind: r.Kind, At: r.At, Data: append([]byte(nil), r.Data...)})
	}
	return out
}

// Stats returns a copy of the activity counters.
func (l *SimLog) Stats() Stats { return l.stats }

package dlog

import "time"

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
type SimLog struct {
	base    []byte // latest durable checkpoint payload
	hasBase bool

	recs []simRec
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

// NewSimLog returns an empty simulated durable log.
func NewSimLog() *SimLog { return &SimLog{} }

// Append adds a record to the volatile tail and returns its LSN
// (monotonic across checkpoints). The record is NOT durable until a
// subsequent sync point completes.
func (l *SimLog) Append(rec Record) int64 {
	data := append([]byte(nil), rec.Data...)
	l.recs = append(l.recs, simRec{rec: Record{Kind: rec.Kind, At: rec.At, Data: data}, durableAt: volatile})
	l.stats.Appends++
	l.stats.AppendedBytes += len(data)
	l.nextLSN++
	return l.nextLSN
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
	for i := len(l.recs) - 1; i >= 0; i-- {
		if d := l.recs[i].durableAt; d != volatile && d <= at {
			break
		}
		l.recs[i].durableAt = at
	}
}

// Checkpoint atomically replaces the log's contents with a checkpoint
// payload: the payload becomes the new durable base and every record is
// compacted away. The caller invokes it from a single handler (and
// charges the sync cost), which is what makes atomicity honest in the
// simulation; the byte-level torn-checkpoint cases are exercised by the
// file-backed implementation.
func (l *SimLog) Checkpoint(now time.Duration, payload []byte) {
	l.base = append([]byte(nil), payload...)
	l.hasBase = true
	l.stats.Checkpoints++
	l.stats.Compacted += len(l.recs)
	l.stats.Syncs++
	l.recs = l.recs[:0]
}

// Crash applies the device crash contract at virtual time at: records
// whose covering sync completed by then survive; the first record still
// in flight becomes a torn tail (detected and discarded — it never
// reappears in Recover), the rest are lost.
func (l *SimLog) Crash(at time.Duration) {
	keep := 0
	for keep < len(l.recs) && l.recs[keep].durableAt != volatile && l.recs[keep].durableAt <= at {
		keep++
	}
	if keep == len(l.recs) {
		return
	}
	l.stats.TornTails++
	l.stats.LostRecords += len(l.recs) - keep - 1
	l.recs = l.recs[:keep]
}

// Recover returns the durable image at now: the latest checkpoint payload
// plus the durable records after it. Any append whose sync has not
// completed by now is treated exactly like a crash at now would treat it
// (first torn, rest lost) — recovering is indistinguishable from power
// loss. Torn reports whether this log ever discarded a torn tail.
func (l *SimLog) Recover(now time.Duration) Recovered {
	l.Crash(now)
	out := Recovered{Torn: l.stats.TornTails > 0}
	if l.hasBase {
		out.Checkpoint = append([]byte(nil), l.base...)
	}
	for _, r := range l.recs {
		out.Records = append(out.Records, Record{Kind: r.rec.Kind, At: r.rec.At, Data: append([]byte(nil), r.rec.Data...)})
	}
	return out
}

// Len reports the number of live (post-checkpoint) records, durable or
// volatile.
func (l *SimLog) Len() int { return len(l.recs) }

// Stats returns a copy of the activity counters.
func (l *SimLog) Stats() Stats { return l.stats }

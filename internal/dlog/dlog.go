// Package dlog implements the durable append-only log that gives the
// StateFlow coordinator (and the Live runtime's response journal) a
// crash-survivable memory. Its write contract follows what modern
// append-optimized storage rewards: strictly sequential typed records,
// explicit sync points (group commit), and checkpoint-based compaction
// that rewrites the log to a bounded suffix instead of updating in place.
//
// Two implementations share one record model:
//
//   - SimLog is the deterministic in-simulation backing store. It is
//     virtual-time aware: records appended but not yet covered by a
//     completed sync when the owning component crashes are lost — the
//     first of them is kept as a *torn tail* that recovery must detect
//     and discard, never replay. Everything a completed sync covered
//     survives the crash, exactly like a real device behind fsync.
//
//   - FileLog is the real thing for the Live runtime: CRC-framed records
//     in an append-only file, torn tails detected (and truncated) on
//     open, checkpoints compacted by atomic rewrite-and-rename.
//
// Record kinds are owned by the subsystem writing the log (the dlog layer
// reserves kind 0 for its own checkpoint records); payloads are opaque
// bytes.
package dlog

// Kind tags a record's type. Kind 0 is reserved for the log's own
// checkpoint records; applications use kinds >= 1.
type Kind uint8

// KindCheckpoint marks a checkpoint record: its payload is the compacted
// state summary that subsumes every record before it.
const KindCheckpoint Kind = 0

// Record is one typed log entry. At is the owner-stamped write time in
// nanoseconds — virtual time for simulated owners, wall-clock time for
// the Live runtime — carried in the durable framing so checkpoint
// policies can retain records by age (e.g. pruning a response journal to
// a retention window) without decoding owner payloads. 0 means unstamped
// (records framed before the stamp existed decode as 0).
type Record struct {
	Kind Kind
	At   int64
	Data []byte
}

// Recovered is the durable image a log yields after a crash: the latest
// durable checkpoint payload (nil when none was ever written) plus the
// durable records appended after it, in order. Torn reports whether a
// torn tail — an append a crash interrupted before its sync completed —
// was detected and discarded during recovery.
type Recovered struct {
	Checkpoint []byte
	Records    []Record
	Torn       bool
}

// Stats counts log activity, for observability and tests.
type Stats struct {
	// Appends counts appended records; AppendedBytes their payload bytes.
	Appends       int
	AppendedBytes int
	// Syncs counts sync points: SyncNow, SyncAt and Checkpoint on SimLog,
	// Sync and Checkpoint on FileLog. A checkpoint is one sync point on
	// both, although FileLog fsyncs the new file and its directory.
	Syncs int
	// Checkpoints counts checkpoint writes; Compacted the records a
	// checkpoint dropped from the live suffix.
	Checkpoints int
	Compacted   int
	// TornTails counts torn tail records detected (and discarded) across
	// crashes; LostRecords counts fully lost (never even torn) volatile
	// records behind a torn tail.
	TornTails   int
	LostRecords int
}

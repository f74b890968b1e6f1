// Typed durable-log records of the StateFlow coordinator. The coordinator
// writes its protocol-critical state — the coordination epoch and every
// released client response — to an append-only dlog and folds the rest
// into checkpoint payloads, so a restart can rebuild exactly the facts
// the exactly-once contract depends on.
package stateflow

import (
	"fmt"
	"sort"
	"time"

	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// Record kinds of the coordinator WAL (dlog reserves kind 0).
const (
	// recKindEpoch logs an epoch advance. On the serial schedule (and for
	// recovery view changes) it is synced blocking before any message of
	// the new epoch is sent, so a restart recovers an epoch >= every
	// epoch the old incarnation ever spoke — what makes the view-change
	// stale-message guard sound. On the pipelined schedule the record
	// rides the previous epoch's group-commit sync instead; at most one
	// advance may be volatile at a time, and the restart path compensates
	// by over-bumping the recovered epoch by one.
	recKindEpoch dlog.Kind = 1
	// recKindDelivered logs one released client response (request id,
	// source-log position, release time, full response). Group-committed:
	// the response is sent only after the covering sync completes, so a
	// response a client saw is always recoverable — and replayable.
	recKindDelivered dlog.Kind = 2
)

// deliveredEntry is the durable egress state for one answered request:
// enough to suppress the recovery replay's duplicate and to re-serve the
// response to a retrying client whose copy was lost.
type deliveredEntry struct {
	resp sysapi.Response
	// at is the virtual release time (drives retention pruning).
	at time.Duration
	// pos is the request's source-log position: entries at or above the
	// latest complete snapshot's offset are never pruned, because a
	// recovery replay can still re-execute them.
	pos int64
}

// walCheckpoint is the compacted coordinator state a dlog checkpoint
// carries: everything the coordinator must remember that individual
// records no longer cover once the log prefix is dropped.
type walCheckpoint struct {
	epoch   int64
	nextTID aria.TID
	// sealed is the id of the newest snapshot this checkpoint vouches
	// for: its images are complete AND every delivered-record its state
	// depends on is inside this checkpoint (or the durable log). Recovery
	// restores only sealed snapshots — a snapshot whose images finished
	// but whose seal never became durable is treated as if it were never
	// taken, which is what lets the snapshot path skip the pre-image
	// WAL force and ride the checkpoint's own sync instead.
	sealed int64
	// sealedCut is the virtual time of the sealed snapshot's aligned cut
	// (when its epoch staged its last response). Recovery compares each
	// delivered entry's release time against it to decide whether the
	// entry's effects are inside the restored images (released at or
	// before the cut) or must be rebuilt by the binding replay (released
	// after). Durable alongside sealed because the comparison must
	// survive a coordinator reboot.
	sealedCut time.Duration
	delivered map[string]deliveredEntry
	// floors carries the per-source incarnation dedup floors (highest
	// pruned sequence per request-id source): once a source's entries
	// are pruned from delivered, the floor is the only fact left that
	// keeps a very late duplicate from re-executing, so it must survive
	// restarts alongside the prune that raised it.
	floors map[string]int64
}

// The record encoders write into the caller's scratch encoder: the
// returned record's Data aliases its buffer and is only valid until the
// encoder's next use, which is enough for SimLog.Append (it copies).

func encodeEpochRecord(e *interp.Encoder, epoch int64) dlog.Record {
	e.Reset()
	e.Varint(epoch)
	return dlog.Record{Kind: recKindEpoch, Data: e.Bytes()}
}

func decodeEpochRecord(data []byte) (int64, error) {
	return interp.NewDecoder(data).Varint()
}

func appendDelivered(e *interp.Encoder, id string, ent deliveredEntry) {
	e.Str(id)
	e.Varint(ent.pos)
	e.Varint(int64(ent.at))
	e.Str(ent.resp.Req)
	e.Value(ent.resp.Value)
	e.Str(ent.resp.Err)
	e.Varint(int64(ent.resp.Retries))
}

func readDelivered(d *interp.Decoder) (string, deliveredEntry, error) {
	fail := func(err error) (string, deliveredEntry, error) {
		return "", deliveredEntry{}, fmt.Errorf("stateflow: delivered record: %w", err)
	}
	id, err := d.Str()
	if err != nil {
		return fail(err)
	}
	pos, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	at, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	req, err := d.Str()
	if err != nil {
		return fail(err)
	}
	val, err := d.Value()
	if err != nil {
		return fail(err)
	}
	errStr, err := d.Str()
	if err != nil {
		return fail(err)
	}
	retries, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	return id, deliveredEntry{
		resp: sysapi.Response{Req: req, Value: val, Err: errStr, Retries: int(retries)},
		at:   time.Duration(at),
		pos:  pos,
	}, nil
}

func encodeDeliveredRecord(e *interp.Encoder, id string, ent deliveredEntry) dlog.Record {
	e.Reset()
	appendDelivered(e, id, ent)
	return dlog.Record{Kind: recKindDelivered, Data: e.Bytes()}
}

func decodeDeliveredRecord(data []byte) (string, deliveredEntry, error) {
	return readDelivered(interp.NewDecoder(data))
}

func encodeCheckpoint(c walCheckpoint) []byte {
	e := interp.NewEncoder()
	e.Varint(c.epoch)
	e.Varint(int64(c.nextTID))
	e.Varint(c.sealed)
	e.Varint(int64(c.sealedCut))
	e.Uvarint(uint64(len(c.delivered)))
	// Deterministic order is not required for correctness (entries land in
	// a map) but keeps same-run checkpoints byte-identical for tests.
	for _, id := range sortedKeys(c.delivered) {
		appendDelivered(e, id, c.delivered[id])
	}
	e.Uvarint(uint64(len(c.floors)))
	srcs := make([]string, 0, len(c.floors))
	for src := range c.floors {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		e.Str(src)
		e.Varint(c.floors[src])
	}
	return e.Bytes()
}

func decodeCheckpoint(data []byte) (walCheckpoint, error) {
	out := walCheckpoint{delivered: map[string]deliveredEntry{}, floors: map[string]int64{}}
	if len(data) == 0 {
		return out, nil
	}
	d := interp.NewDecoder(data)
	epoch, err := d.Varint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	tid, err := d.Varint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	sealed, err := d.Varint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	sealedCut, err := d.Varint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	n, err := d.Uvarint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	out.epoch, out.nextTID, out.sealed = epoch, aria.TID(tid), sealed
	out.sealedCut = time.Duration(sealedCut)
	for i := uint64(0); i < n; i++ {
		id, ent, err := readDelivered(d)
		if err != nil {
			return out, err
		}
		out.delivered[id] = ent
	}
	nf, err := d.Uvarint()
	if err != nil {
		return out, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	for i := uint64(0); i < nf; i++ {
		src, err := d.Str()
		if err != nil {
			return out, fmt.Errorf("stateflow: checkpoint: %w", err)
		}
		floor, err := d.Varint()
		if err != nil {
			return out, fmt.Errorf("stateflow: checkpoint: %w", err)
		}
		out.floors[src] = floor
	}
	return out, nil
}

func sortedKeys(m map[string]deliveredEntry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

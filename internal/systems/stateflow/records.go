// Control records of the sharded global-commit protocol, as Go values.
//
// A shard's source log (internal/queue) stores payloads as they are — it
// never serialises the client requests in it — so the protocol's own
// recovery records sit beside them in the same form: a fenceMarker for
// each edge of a fence window, and one globalApply per shard a global
// batch commits into. Every apply of a batch points at the same
// batchManifest, built once by the sequencer and immutable from then on:
// it is the batch's durable recovery record, and it is where each shard's
// write-set lives. An apply executes nothing: the coordinator counts it
// finished when it assigns it, and the batch decide carries it to the
// workers, which install its rows (msgDecide.Apply). readSource is the only
// place that looks at what a source-log position holds.
package stateflow

import (
	"fmt"
	"strconv"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// fenceMarker is the durable edge of a fence window in a shard's source
// log: open when the shard parked for global batch seq, closed when it
// resumed. A marker also carries the sequencer ballot the shard has
// promised (the restart scan reads it off open ones), and a parked shard
// re-opens its window with a fresh marker when it promises a higher one. Markers are never executed; the restart scan
// reads them back to re-derive the fence state (scanFenceState).
type fenceMarker struct {
	seq    int64
	open   bool
	ballot int64
}

// entityImage is one entity's committed image as a global batch moves it:
// read from a parked shard (msgFenceAck.Rows; St nil when the entity does
// not exist) or written back (globalApply.writes). Every row is shared and
// read-only. A fence ack carries the parked worker's own committed row,
// which is safe because a parked shard replaces rows but never writes one
// in place; the sequencer's overlay copies a row before the batch first
// writes it, so a row the batch wrote is the batch's own. A written row is
// shared by everything that holds the manifest — the sequencer's batch, the
// source-log record, a failover report — and must stay as logged for a
// binding replay or a failover to install again, while a worker writes its
// committed rows in place: a worker installs a clone (Worker.installApply).
type entityImage struct {
	Ref interp.EntityRef
	St  *interp.Row
}

// manifestTxn is one client transaction of a global batch: its identity,
// where the response goes, its home shard, and the response the batch
// computed for it.
type manifestTxn struct {
	req     string
	replyTo string
	home    int
	res     sysapi.Response
}

// batchManifest is the recovery record of one global batch: the fenced
// footprint in ring order, the transactions in batch order with their
// responses, and the applies in shard ring order. One durable apply
// anywhere is enough to finish the batch exactly as the dead sequencer
// incarnation would have (failover.go).
type batchManifest struct {
	seq       int64
	footprint []int
	txns      []manifestTxn
	applies   []globalApply
}

// globalApply is one shard's slice of a global batch: the write-set the
// shard installs (in class/key order; empty for a shard that is only home
// to a batch transaction) as the last member of one ordinary epoch. It is
// the message the sequencer sends, the record the shard logs — the
// shard-local atomic commit point — and what a failover report carries.
type globalApply struct {
	// id names the apply transaction for ingress dedup, response staging
	// and re-serve. It is dotless, so the per-source incarnation floor
	// never applies (see sysapi.SplitID), and stable across sequencer
	// incarnations, so a rebooted sequencer's re-send dedupes against the
	// original.
	id      string
	shard   int
	writes  []entityImage
	replyTo string // the sequencer: where the durable-commit ack goes
	man     *batchManifest
}

// applyID is "gapply-<seq>-<shard>", built in a stack buffer: the one
// allocation is the string.
func applyID(seq int64, shard int) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "gapply-"...), seq, 10)
	b = strconv.AppendInt(append(b, '-'), int64(shard), 10)
	return string(b)
}

// pending is the apply as the transaction the coordinator's epoch
// machinery runs, read from (or just appended at) source-log position pos.
func (a *globalApply) pending(pos int64) pendingReq {
	return pendingReq{
		req:     sysapi.Request{Req: a.id},
		replyTo: a.replyTo,
		pos:     pos,
		apply:   a,
	}
}

// sourceRecord is what one source-log position holds: a fence marker, or
// a transaction to run — a client request, or with txn.apply set one
// shard's slice of a global batch.
type sourceRecord struct {
	marker *fenceMarker
	txn    pendingReq
}

// isClientRequest reports whether the record belongs to the client request
// stream rather than to the global-commit protocol.
func (r sourceRecord) isClientRequest() bool {
	return r.marker == nil && r.txn.apply == nil
}

// readSource reads the source log at pos; ok is false past the end.
func (c *Coordinator) readSource(pos int64) (sourceRecord, bool) {
	rec, ok := c.sys.RequestLog.Read(pos)
	if !ok {
		return sourceRecord{}, false
	}
	switch p := rec.Payload.(type) {
	case sysapi.MsgRequest:
		return sourceRecord{txn: pendingReq{req: p.Request, replyTo: p.ReplyTo, pos: pos}}, true
	case *globalApply:
		return sourceRecord{txn: p.pending(pos)}, true
	case *fenceMarker:
		return sourceRecord{marker: p}, true
	}
	panic(fmt.Sprintf("stateflow: source log position %d holds a %T", pos, rec.Payload))
}

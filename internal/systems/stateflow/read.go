// The coordinator's fast-read path. A call whose method is read-only and
// simple (ir.Method.ReadOnly && Simple: it writes nothing and touches only
// its target) needs none of what an epoch buys: there is nothing to
// reserve, validate, install, log or replay. So it never enters a batch.
// The coordinator forwards it to the target's owner, stamped with the epoch
// after the newest decided one; the owner runs it against its committed
// store at an epoch boundary no earlier than the stamp (Worker.onRead) and
// answers with its applied epoch, the cut the read saw. Every response of
// that epoch is staged by then — its last decide was broadcast before any
// worker could apply it — so the coordinator releases the answer with the
// group-commit sync that releases them, or at once if that sync already
// completed (journal.stageRead).
//
// The waits at the worker make a read linearizable. A batch's responses
// leave at its decide, before the workers install it, and a chained
// member's leaves before its epoch's final decide; so a read waits at the
// gate until its owner applied every epoch decided before it was
// forwarded, and — while a chain installs, the store being between two
// cuts — for that chain's final decide. It then sees every response any
// client could have seen before sending it. The wait at the coordinator
// makes it recoverable: what the read saw is durable — rebuilt by a binding
// replay if it must be — before a client sees it. Aria treats read-only
// transactions apart from the batch the same way (Lu et al., VLDB 2020).
//
// A read leaves no journal record and passes no dedup: a retry, or a wire
// duplicate, simply executes again. Reads are held — and forwarded once
// the hold ends — while the coordinator is recovering, while a binding
// replay has not drained, and while the shard is parked for a global batch:
// another footprint shard may already have installed the batch and
// released its response, so a read of this shard's side must wait for the
// unfence, which comes once every side is durable. A pending fence holds
// nothing: no batch on this shard's footprint executes before it parks. An
// answer is released whenever it arrives: a read that saw a parked shard's
// installed side is released behind that side's durable records, and the
// other sides hold their reads. A recovery re-forwards every read still
// unanswered; only a coordinator reboot loses reads, to the client's retry,
// as it loses un-logged arrivals.
package stateflow

import (
	"cmp"
	"slices"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// fastRead is one read on the fast path, from arrival to release. Once its
// answer is staged the record goes to the coordinator's free list, and a
// later read zeroes and reuses it — unless a recovery took the read back:
// its first forward may still be in flight (see msgTxnEvent).
type fastRead struct {
	// first is the body of the first forward's message (see msgTxnEvent),
	// and its ev is the call; a forward after a recovery allocates its own
	// body and copies the call into it. Workers answer a read where it runs
	// and an answer never writes ev, so the call outlives every forward.
	first   txnEvent
	replyTo string
	// seq is the number it was last forwarded under (0: not forwarded yet);
	// a worker's answer names it, so an answer to an earlier forward is
	// stale.
	seq aria.TID
}

// fastRead reports whether a request takes the fast-read path.
func (s *System) fastRead(req sysapi.Request) bool {
	if req.Method == "__init__" {
		return false
	}
	m := s.prog.MethodOf(req.Target.Class, req.Method)
	return m != nil && m.ReadOnly && m.Simple
}

// readsHeld reports whether a read must wait before it is forwarded: a
// recovery or its binding replay is in flight, or the shard is parked for a
// global batch.
func (c *Coordinator) readsHeld() bool {
	return c.recovering || c.replayAt >= 0 || c.fenceSeq != 0
}

// onRead takes a read-only call in: forwarded at once, or held.
func (c *Coordinator) onRead(ctx *sim.Context, m sysapi.MsgRequest) {
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	var r *fastRead
	if n := len(c.freeReads); n > 0 {
		r, c.freeReads = c.freeReads[n-1], c.freeReads[:n-1]
	} else {
		r = new(fastRead)
	}
	*r = fastRead{replyTo: m.ReplyTo, first: txnEvent{ev: core.Event{
		Kind:   core.EvInvoke,
		Req:    m.Request.Req,
		Target: m.Request.Target,
		Method: m.Request.Method,
		Args:   m.Request.Args,
	}}}
	if c.readsHeld() {
		c.held = append(c.held, r)
		return
	}
	c.forwardRead(ctx, r)
}

// forwardRead sends a read to its target's owner under a fresh number,
// stamped with the epoch after the newest decided one: the owner's buffered
// gate holds it until every epoch whose responses may be out is installed.
func (c *Coordinator) forwardRead(ctx *sim.Context, r *fastRead) {
	body := &r.first
	if r.seq == 0 {
		body.Ev = &body.ev
	} else {
		body = new(txnEvent)
		body.forward(r.first.ev, nil)
	}
	c.readSeq++
	r.seq = c.readSeq
	if c.reads == nil {
		c.reads = map[aria.TID]*fastRead{}
	}
	c.reads[r.seq] = r
	body.TID, body.Epoch, body.Round = r.seq, c.decided+1, readRound
	ctx.Send(c.sys.ownerOf(r.first.ev.Target), msgTxnEvent{body},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// serveHeld forwards the held reads once nothing holds them any more.
func (c *Coordinator) serveHeld(ctx *sim.Context) {
	if c.readsHeld() {
		return
	}
	held := c.held
	c.held = nil
	for _, r := range held {
		c.forwardRead(ctx, r)
	}
}

// onReadDone takes a worker's answer to a read and stages it behind the
// responses of the epoch it saw. An answer the read's last forward did not
// ask for is stale and dropped: a recovery took the read back
// (holdUnanswered). The journal copies the response, so a read answered in
// its record's own body — forwarded once — frees the record; one a recovery
// took back was answered in a later forward's body and is left to the
// collector.
func (c *Coordinator) onReadDone(ctx *sim.Context, m msgTxnFinished) {
	r := c.reads[m.TID]
	if r == nil {
		return
	}
	delete(c.reads, m.TID)
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	c.FastReads++
	if r.replyTo != "" {
		c.journal.stageRead(ctx, r.replyTo, sysapi.Response{Req: r.first.ev.Req, Value: m.Value, Err: m.Err}, m.Epoch)
	}
	if m.txnEvent == &r.first {
		c.freeReads = append(c.freeReads, r)
	}
}

// holdUnanswered moves every read a recovery may have voided — forwarded
// and unanswered — back to the held queue, in forwarding order, to be
// forwarded again once the recovery drains. Answered reads are untouched:
// what they saw is staged, so durable or rebuilt.
func (c *Coordinator) holdUnanswered() {
	out := make([]*fastRead, 0, len(c.reads))
	for _, r := range c.reads {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *fastRead) int { return cmp.Compare(a.seq, b.seq) })
	c.held = append(c.held, out...)
	c.reads = nil
}

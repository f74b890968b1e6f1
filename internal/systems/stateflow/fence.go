// Shard-side half of the sharded global-commit protocol.
//
// Cross-shard transactions execute at the global sequencer (sequencer.go)
// against a fenced, quiescent view of every involved shard, then commit
// back into each shard as the last member of one ordinary epoch. The
// shard's obligations, implemented here:
//
//   - Quiesce on msgFence: finish every in-flight epoch, drain the
//     staged responses to durability (so the state the sequencer reads
//     is exactly the durable, recovery-reconstructible prefix), then
//     park with an open empty epoch — and only then append a durable
//     open fenceMarker to the source log and ack. The marker precedes
//     the ack, so once the sequencer believes the shard is fenced, no
//     crash can make it forget: the restart scan finds the unbalanced
//     marker and comes back parked.
//   - Answer the fence in its ack (ackFence): which of the batch
//     transactions homed here the journal already answered, so a retried
//     global id is never executed twice, and the committed rows of the
//     entities the fence reads. A re-sent fence with a longer read list is
//     answered the same way for as long as the shard stays parked.
//   - Run the sequencer's globalApply as an ordinary epoch through the
//     full Aria machinery (stall detection, response staging, group
//     commit, recovery): the apply executes nothing, and the epoch's decide
//     carries its rows to the workers (see Worker.installApply). Appending
//     the apply to the source log is the shard-local atomic commit point.
//   - Resume on msgUnfence: append the balancing closed marker, ack, and
//     refill the parked epoch from the backlog that queued behind the
//     fence.
//
// The records themselves are defined in records.go.
package stateflow

import (
	"strconv"

	"statefulentities.dev/stateflow/internal/sim"
)

// onFence handles the sequencer's quiesce request. The batch the shard is
// parked on re-acks (the original ack was lost, or answered a different
// admission list), completed ones re-ack bare; a new batch id arms the
// quiesce and parks immediately if the shard is already idle.
func (c *Coordinator) onFence(ctx *sim.Context, from string, m msgFence) {
	switch {
	case c.fenceSeq != 0 && m.Seq == c.fenceSeq:
		c.ackFence(ctx, from, m)
	case m.Seq <= c.fenceDone:
		ctx.Send(from, msgFenceAck{Seq: m.Seq}, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	case c.fenceSeq != 0:
		// Parked on an older batch whose unfence never arrived (the
		// sequencer abandoned it and the one unfence died with this
		// coordinator's previous incarnation). The park watchdog surfaces
		// the orphan and the sequencer's stall guard re-sends this fence.
	default:
		c.fencePending = m
		c.maybeFence(ctx)
	}
}

// ackFence confirms the park to the sequencer and answers the fence. Its
// admission list is judged against the journal: a member is known if its
// response is part of the egress state or its id sits at or below its
// source's dedup floor. Its read list is answered with the committed worker
// rows themselves, not copies: while the shard is parked its rows are
// replaced (an apply's install, a recovery's decode) but never written in
// place, and the sequencer copies a row before it writes one. (Reading the
// worker stores directly is the same modeling shortcut EntityState uses: the
// parked stores are stable, so the read is deterministic.) The shard is
// parked, so nothing can answer a listed id or write a listed row between
// this ack and the batch's own apply — provided nothing is in flight right
// now: no recovery, commit or binding replay, and an open empty epoch.
// Otherwise the ack waits for the sequencer's re-sent fence. A crashed
// worker's store is unreadable, so it triggers recovery instead of an
// answer; the durable fence survives it.
func (c *Coordinator) ackFence(ctx *sim.Context, to string, m msgFence) {
	if c.recovering || c.commit != nil || len(c.replaying) > 0 {
		return
	}
	if st := c.exec; st == nil || st.phase != phaseOpen || len(st.txns) != 0 {
		return
	}
	if c.sys.isCrashed != nil {
		for _, w := range c.sys.workerIDs {
			if c.sys.isCrashed(w) {
				c.Recover(ctx)
				return
			}
		}
	}
	ack := msgFenceAck{Seq: m.Seq, Admit: m.Admit, Known: make([]bool, len(m.Admit)),
		Rows: make([]entityImage, len(m.Reads))}
	for i, id := range m.Admit {
		ctx.Work(c.sys.cfg.Costs.RoutingCPU)
		ack.Known[i] = c.journal.known(id)
	}
	for i, ref := range m.Reads {
		ctx.Work(c.sys.cfg.Costs.RoutingCPU)
		ack.Rows[i].Ref = ref
		ack.Rows[i].St, _ = c.sys.workers[c.sys.OwnerIndex(ref)].committed.Lookup(ref)
	}
	ctx.Send(to, ack, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// maybeFence parks the shard for the pending global batch once fully
// quiescent: no recovery or commit in flight, no binding replay, no
// buffered retries, no staged responses (every released effect is
// durable, so the parked state equals what a crash-recovery would
// rebuild), and an open, empty, non-binding exec epoch. Reports whether
// the shard fenced.
func (c *Coordinator) maybeFence(ctx *sim.Context) bool {
	if c.fencePending.Seq == 0 || c.fenceSeq != 0 || c.recovering {
		return false
	}
	if c.commit != nil || len(c.replaying) > 0 || len(c.pending) > 0 || !c.journal.quiet() {
		return false
	}
	st := c.exec
	if st == nil || st.phase != phaseOpen || st.binding || len(st.txns) != 0 {
		return false
	}
	m := c.fencePending
	c.fencePending = msgFence{}
	c.produceMarker(ctx, m.Seq, true)
	c.fenceSeq, c.fencedAt = m.Seq, ctx.Now()
	c.GlobalFences++
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "fence", "parked for global batch %d", m.Seq)
	}
	c.ackFence(ctx, c.sys.seqID, m)
	c.armParkWatchdog(ctx)
	return true
}

// armParkWatchdog starts the park watchdog: one re-ack a stall timeout
// from now, re-armed for as long as the shard stays parked. The tick it
// supersedes, if any, fires before the new deadline and is dropped.
func (c *Coordinator) armParkWatchdog(ctx *sim.Context) {
	c.parkAt = ctx.Now() + c.sys.cfg.StallTimeout
	ctx.After(c.sys.cfg.StallTimeout, msgFenceParkTick{})
}

// onFenceParkTick re-acks the fence while the shard stays parked. In the
// normal schedule this is a harmless duplicate; its purpose is the
// orphaned park — a fence from a dead sequencer incarnation that arrived
// after the recovery handshake, or a park rebuilt by a restart that
// swallowed the releasing unfence — which only this re-ack surfaces (the
// sequencer answers it with the unfence, see maybeReleaseOrphan). The
// watchdog stops with the park; a tick before the armed deadline is an
// orphan (see msgFenceParkTick).
func (c *Coordinator) onFenceParkTick(ctx *sim.Context) {
	if c.fenceSeq == 0 || ctx.Now() < c.parkAt {
		return
	}
	ctx.Send(c.sys.seqID, msgFenceAck{Seq: c.fenceSeq},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	c.armParkWatchdog(ctx)
}

// onSeqFenceQuery answers a rebooted sequencer's recovery handshake with
// this shard's durable fence state: parked or not, for which batch, the
// completed high-water mark, and — if parked with the batch's apply
// already in the source log — that apply, whose manifest lets the
// sequencer re-derive the batch. Any fence still pending from the dead
// incarnation is dropped: its batch is either being rolled forward (the
// re-sent fence will re-arm it) or abandoned. Dropping it reopens the
// intake, so the backlog that queued behind it drains now.
//
// The report is a promise: no apply of an older incarnation is logged after
// it (onGlobalApply). Without it, a dead incarnation's apply still in
// flight could land on a parked shard that reported no apply, and commit
// half of a batch the new incarnation abandons. A parked shard logs the
// promise on a fresh open marker before it reports, so a reboot keeps it;
// an unparked one needs no record, as every apply of an older incarnation
// is for a batch it is no longer parked on.
func (c *Coordinator) onSeqFenceQuery(ctx *sim.Context, from string, m msgSeqFenceQuery) {
	if c.recovering {
		return // report after recovery converges; the sequencer re-queries
	}
	if m.Ballot > c.ballot {
		c.ballot = m.Ballot
		if c.fenceSeq != 0 {
			c.produceMarker(ctx, c.fenceSeq, true)
		}
	}
	c.fencePending = msgFence{}
	rep := msgSeqFenceReport{
		Shard:     c.sys.shardIndex,
		FenceSeq:  c.fenceSeq,
		FenceDone: c.fenceDone,
	}
	if c.fenceSeq != 0 {
		rep.Apply = c.findApply(c.fenceSeq)
	}
	ctx.Send(from, rep, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	c.drainSource(ctx)
}

// findApply scans the source-log suffix for the fenced batch's apply
// (answered or not — the recovery handshake needs its manifest either
// way; scanFenceState's answered-filter only applies to re-execution).
func (c *Coordinator) findApply(seq int64) *globalApply {
	for pos := c.sys.RequestLog.End() - 1; pos >= c.consumed; pos-- {
		rec, _ := c.readSource(pos)
		if a := rec.txn.apply; a != nil && a.man.seq == seq {
			return a
		}
	}
	return nil
}

// onUnfence releases the park: the global batch's writes are durable on
// every involved shard, so normal epochs may interleave again. The
// balancing closed marker is appended before the ack, mirroring the
// fence side.
func (c *Coordinator) onUnfence(ctx *sim.Context, from string, m msgUnfence) {
	if m.Seq <= c.fenceDone {
		ctx.Send(from, msgUnfenceAck{Seq: m.Seq},
			c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		return
	}
	if m.Seq != c.fenceSeq {
		return // out-of-order copy for a batch this shard is not parked on
	}
	c.produceMarker(ctx, m.Seq, false)
	if tr := c.tracer(); tr.Enabled() {
		tr.Span(c.sys.coordID, "fence", "fence.park", c.fencedAt, ctx.Now(),
			"seq", strconv.FormatInt(m.Seq, 10))
	}
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "unfence", "resumed after global batch %d", m.Seq)
	}
	c.fenceSeq, c.fenceDone, c.fenceApply = 0, m.Seq, nil
	ctx.Send(from, msgUnfenceAck{Seq: m.Seq},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	// The batch is durable on every footprint shard: reads held through the
	// park may see it now.
	c.serveHeld(ctx)
	// Resume: refill the parked epoch (backlog queued behind the fence,
	// then the tick chain). Mid-recovery there is nothing to resume —
	// the post-recovery openEpoch sees no park and runs normally.
	if st := c.exec; !c.recovering && st != nil && st.phase == phaseOpen &&
		!st.binding && len(st.txns) == 0 {
		c.fillEpoch(ctx, st)
	}
}

// onGlobalApply admits the sequencer's apply for the batch this shard is
// parked on. It passes the same ingress dedup a client request does
// (re-serve if answered, absorb if in flight), so a re-sent apply — by the
// stall guard, or by a rebooted sequencer rolling the batch forward — is
// idempotent. Appending it to the source log is the shard-local atomic
// commit point of the global batch; then it runs through the parked
// epoch. consumed does NOT advance — arrivals queued during the fence sit
// between the cursor and this record, and the post-unfence drain skips it.
func (c *Coordinator) onGlobalApply(ctx *sim.Context, m msgGlobalApply) {
	a := m.Apply
	if !c.admit(ctx, a.id, a.replyTo) {
		return
	}
	// An apply is only meaningful inside its fence window and from an
	// incarnation no later one has superseded here; otherwise (or
	// mid-recovery) the copy is stale or early — drop it unlogged and let
	// the sequencer's stall guard, or a roll-forward, re-send.
	if c.recovering || a.man.seq != c.fenceSeq || m.Ballot < c.ballot {
		return
	}
	pos := c.sys.RequestLog.Append(a)
	c.journal.logged(a.id)
	p := a.pending(pos)
	p.arrivedAt = ctx.Now()
	c.startApply(ctx, p)
}

// startApply runs the sequencer's write-set transaction through the
// parked epoch: assign it as the epoch's only member — it executes
// nothing, so it is finished on assignment — and close the batch
// immediately. From here the ordinary machinery takes over — validation,
// the decide that carries the rows to the workers, response staging and
// group commit — so the apply inherits every durability and failure
// guarantee a normal transaction has. If the parked slot is busy (a
// binding replay tail, or a previous apply still committing), the apply
// waits in fenceApply for the next fenced epoch: only then does it take a
// record of its own.
func (c *Coordinator) startApply(ctx *sim.Context, p pendingReq) {
	st := c.exec
	if st == nil || st.phase != phaseOpen || st.binding || len(st.txns) != 0 {
		parked := p
		c.fenceApply = &parked
		return
	}
	c.GlobalApplies++
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "global.batch",
			"executing write-set apply %s", p.req.Req)
	}
	if tr := c.tracer(); tr.Enabled() {
		tr.Instant(c.sys.coordID, "fence", "__apply__", ctx.Now(),
			"trace", p.req.Trace.ID, "req", p.req.Req)
	}
	c.assign(ctx, st, p)
	c.closeBatch(ctx, st)
}

// produceMarker appends a durable fence-window marker to the source log,
// carrying the ballot promised so far. Markers are never executed — the
// drain loop skips them — they exist so the restart scan can re-derive the
// fence state: a suffix whose last marker is open means the crash landed
// inside the fence window.
func (c *Coordinator) produceMarker(ctx *sim.Context, seq int64, open bool) {
	ctx.Work(c.sys.cfg.Costs.LogAppendCPU)
	c.sys.RequestLog.Append(&fenceMarker{seq: seq, open: open, ballot: c.ballot})
}

// scanFenceState re-derives the fence state from the durable markers in
// the source-log suffix (called from Recover, after the consumed cursor
// and the egress state are restored). The scan range [consumed, end) is
// sufficient for the window: the cursor only passes a fence marker during a
// normal drain, which runs unfenced — i.e. after the balancing closed
// marker was appended — and no snapshot (hence no checkpoint offset) is
// ever taken inside a fence window. A closing marker below the cursor is
// not lost either: fenceDone, which it raised, rides every checkpoint
// since and came back with the journal (OnRestart). An unanswered apply
// under an unbalanced open marker is the batch's write-set caught
// mid-commit; it re-executes from the log record once the binding replay
// drains (fenceApply), which is also why rebuildSeen absorbing the
// sequencer's apply re-sends is safe.
func (c *Coordinator) scanFenceState() {
	c.fenceSeq, c.fenceApply = 0, nil
	var apply *pendingReq
	for pos, end := c.consumed, c.sys.RequestLog.End(); pos < end; pos++ {
		rec, _ := c.readSource(pos)
		switch mk := rec.marker; {
		case mk != nil && mk.open:
			if c.fenceSeq != mk.seq {
				apply = nil // a new window; a re-opened one keeps its apply
			}
			c.fenceSeq = mk.seq
			c.ballot = max(c.ballot, mk.ballot)
		case mk != nil:
			c.fenceSeq = 0
			if mk.seq > c.fenceDone {
				c.fenceDone = mk.seq
			}
			apply = nil
		case rec.txn.apply != nil:
			p := rec.txn
			apply = &p
		}
	}
	if c.fenceSeq != 0 {
		c.fencePending = msgFence{}
		if apply != nil && !c.journal.answered(apply.req.Req) {
			c.fenceApply = apply
		}
	}
}

// Shard-side half of the sharded global-commit protocol.
//
// Cross-shard transactions execute at the global sequencer (sharded.go)
// against a fenced, quiescent view of every involved shard, then commit
// back into each shard as one blind write-set transaction. The shard's
// obligations, implemented here:
//
//   - Quiesce on msgFence: finish every in-flight epoch, drain the
//     staged responses to durability (so the state the sequencer reads
//     is exactly the durable, recovery-reconstructible prefix), then
//     park with an open empty epoch — and only then append a durable
//     __fence__ marker to the source log and ack. The marker precedes
//     the ack, so once the sequencer believes the shard is fenced, no
//     crash can make it forget: the restart scan finds the unbalanced
//     marker and comes back parked.
//   - While parked, answer msgGlobalRead from committed worker state.
//   - Run the sequencer's __apply__ as an ordinary single-member epoch
//     through the full Aria machinery (stall detection, response
//     staging, group commit, recovery) — the workers install the
//     write-set blindly (see worker.go). Producing the apply into the
//     source log is the shard-local atomic commit point.
//   - Resume on msgUnfence: append the balancing __unfence__ marker,
//     ack, and refill the parked epoch from the backlog that queued
//     behind the fence.
package stateflow

import (
	"fmt"
	"strconv"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// Reserved method names of the global-commit protocol. None of them can
// collide with compiled program methods (the language forbids leading
// underscores except __init__), and the marker/apply ids are dotless so
// the incarnation dedup floor never applies to them.
const (
	applyMethod   = "__apply__"
	fenceMethod   = "__fence__"
	unfenceMethod = "__unfence__"
)

// isGlobalRecord reports whether a source-log record belongs to the
// global-commit protocol rather than the client request stream.
func isGlobalRecord(method string) bool {
	return method == applyMethod || method == fenceMethod || method == unfenceMethod
}

// markerSeq extracts the global batch id carried by a marker or apply
// request (-1 if malformed).
func markerSeq(r sysapi.Request) int64 {
	if len(r.Args) > 0 && r.Args[0].Kind == interp.KInt {
		return r.Args[0].I
	}
	return -1
}

// writeSetEntry is one final entity image of a global batch's write-set.
// The set rides the __apply__ request as a single encoded string argument
// (Args[1]): Uvarint(count), then per entity Str(class), Str(key),
// Row(image). The sequencer pre-sorts entries by (class, key), so the
// encoding — and the worker chain that installs it — is deterministic.
type writeSetEntry struct {
	Ref interp.EntityRef
	St  *interp.Row
}

func encodeWriteSet(entries []writeSetEntry) string {
	enc := interp.NewEncoder()
	enc.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		enc.Str(e.Ref.Class)
		enc.Str(e.Ref.Key)
		enc.Row(e.St)
	}
	return string(enc.Bytes())
}

// decodeWriteSet lays the images out as rows of the program's class
// layouts. The string comes back from the source log on recovery, so it is
// parsed as outside input: malformed bytes are an error, never a panic.
func decodeWriteSet(s string, layouts *ir.Layouts) ([]writeSetEntry, error) {
	dec := interp.NewDecoder([]byte(s))
	n, err := dec.Count()
	if err != nil {
		return nil, err
	}
	out := make([]writeSetEntry, 0, n)
	for i := 0; i < n; i++ {
		class, err := dec.Str()
		if err != nil {
			return nil, err
		}
		key, err := dec.Str()
		if err != nil {
			return nil, err
		}
		row, err := dec.Row(layouts.LayoutOf(class))
		if err != nil {
			return nil, err
		}
		out = append(out, writeSetEntry{Ref: interp.EntityRef{Class: class, Key: key}, St: row})
	}
	return out, nil
}

// onFence handles the sequencer's quiesce request. Completed batches and
// the in-progress one re-ack idempotently (the original ack was lost);
// a new batch id arms the quiesce and parks immediately if the shard is
// already idle.
func (c *Coordinator) onFence(ctx *sim.Context, m msgFence) {
	if m.Seq <= c.fenceDone || (c.fenced && m.Seq == c.fenceSeq) {
		if c.fenced && m.Seq == c.fenceSeq {
			// Re-point the park at the sender: after a coordinator restart
			// the scan rebuilds the fence but not who asked for it, and the
			// park watchdog needs a live address to re-ack to.
			c.fenceFrom = m.From
		}
		ctx.Send(m.From, msgFenceAck{Seq: m.Seq},
			c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		return
	}
	if c.fenced {
		return // fenced for a different (older) batch: impossible unless stale; drop
	}
	c.fencePending, c.fenceFrom = m.Seq, m.From
	c.maybeFence(ctx)
}

// maybeFence parks the shard for the pending global batch once fully
// quiescent: no recovery or commit in flight, no binding replay, no
// buffered retries, no staged responses (every released effect is
// durable, so the parked state equals what a crash-recovery would
// rebuild), and an open, empty, non-binding exec epoch. Reports whether
// the shard fenced.
func (c *Coordinator) maybeFence(ctx *sim.Context) bool {
	if c.fencePending == 0 || c.fenced || c.recovering {
		return false
	}
	if c.commit != nil || len(c.replaying) > 0 || len(c.pending) > 0 || len(c.staged) > 0 {
		return false
	}
	st := c.exec
	if st == nil || st.phase != phaseOpen || st.binding || len(st.batch) != 0 {
		return false
	}
	seq := c.fencePending
	c.produceMarker(ctx, fenceMethod, seq)
	c.fenced, c.fenceSeq = true, seq
	c.fencePending = 0
	c.fencedAt = ctx.Now()
	c.GlobalFences++
	c.flight().Recordf(ctx.Now(), c.sys.coordID, "fence", "parked for global batch %d", seq)
	ctx.Send(c.fenceFrom, msgFenceAck{Seq: seq},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	c.armParkWatchdog(ctx, seq)
	return true
}

// armParkWatchdog starts the fence-park watchdog chain for batch seq
// (at most one live chain per park; see onFenceParkTick).
func (c *Coordinator) armParkWatchdog(ctx *sim.Context, seq int64) {
	if c.parkWatch == seq {
		return
	}
	c.parkWatch = seq
	ctx.After(c.sys.cfg.StallTimeout, msgFenceParkTick{Seq: seq})
}

// onFenceParkTick re-acks the fence while the shard stays parked. In the
// normal schedule this is a harmless duplicate; its purpose is the
// orphaned park — a fence from a dead sequencer incarnation that arrived
// after the recovery handshake — which only this re-ack surfaces (the
// new incarnation answers it with the releasing unfence, see
// maybeReleaseOrphan). The chain dies with the park.
func (c *Coordinator) onFenceParkTick(ctx *sim.Context, m msgFenceParkTick) {
	if !c.fenced || m.Seq != c.fenceSeq {
		if c.parkWatch == m.Seq {
			c.parkWatch = 0
		}
		return
	}
	if c.fenceFrom != "" {
		ctx.Send(c.fenceFrom, msgFenceAck{Seq: m.Seq},
			c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
	ctx.After(c.sys.cfg.StallTimeout, msgFenceParkTick{Seq: m.Seq})
}

// onSeqFenceQuery answers a rebooted sequencer's recovery handshake with
// this shard's durable fence state: parked or not, for which batch, the
// completed high-water mark, and — if parked with the batch's __apply__
// already in the source log — that apply verbatim, so the sequencer can
// re-derive the batch from its manifest. Any fence still pending from
// the dead incarnation is dropped: its batch is either being rolled
// forward (the re-sent fence will re-arm it) or abandoned.
func (c *Coordinator) onSeqFenceQuery(ctx *sim.Context, m msgSeqFenceQuery) {
	if c.recovering {
		return // report after recovery converges; the sequencer re-queries
	}
	c.fencePending = 0
	rep := msgSeqFenceReport{
		Shard:     c.sys.shardIndex,
		Fenced:    c.fenced,
		FenceSeq:  c.fenceSeq,
		FenceDone: c.fenceDone,
	}
	if c.fenced {
		c.fenceFrom = m.From // future park re-acks go to the new incarnation
		if rec := c.findApplyRecord(c.fenceSeq); rec != nil {
			rep.HasApply = true
			rep.Apply = *rec
		}
	}
	ctx.Send(m.From, rep, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// findApplyRecord scans the source-log suffix for the fenced batch's
// __apply__ (answered or not — the recovery handshake needs its manifest
// either way; scanFenceState's answered-filter only applies to
// re-execution).
func (c *Coordinator) findApplyRecord(seq int64) *sysapi.MsgRequest {
	end, err := c.sys.RequestLog.End(sourceTopic, 0)
	if err != nil {
		return nil
	}
	for pos := end - 1; pos >= c.consumed; pos-- {
		rec, ok, err := c.sys.RequestLog.Fetch(sourceTopic, 0, pos)
		if err != nil || !ok {
			break
		}
		m, ok := rec.Payload.(sysapi.MsgRequest)
		if !ok {
			continue
		}
		if m.Request.Method == applyMethod && markerSeq(m.Request) == seq {
			return &m
		}
	}
	return nil
}

// onSeqProbe answers a failed-over sequencer's exactly-once probe from
// the durable egress buffer: Known means this shard released (or is
// about to release — delivered only, staged responses become visible on
// their sync and the probe is re-sent by the client's next retry) the
// transaction's response as part of an installed global batch.
func (c *Coordinator) onSeqProbe(ctx *sim.Context, m msgSeqProbe) {
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	ack := msgSeqProbeAck{Req: m.Req}
	if ent, ok := c.delivered[m.Req]; ok {
		ack.Known, ack.Res = true, ent.resp
	}
	ctx.Send(m.From, ack, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// onUnfence releases the park: the global batch's writes are durable on
// every involved shard, so normal epochs may interleave again. The
// balancing __unfence__ marker is appended before the ack, mirroring
// the fence side.
func (c *Coordinator) onUnfence(ctx *sim.Context, m msgUnfence) {
	if m.Seq <= c.fenceDone {
		ctx.Send(m.From, msgUnfenceAck{Seq: m.Seq},
			c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		return
	}
	if !c.fenced || m.Seq != c.fenceSeq {
		return // out-of-order copy for a batch this shard is not parked on
	}
	c.produceMarker(ctx, unfenceMethod, m.Seq)
	if tr := c.tracer(); tr.Enabled() {
		tr.Span(c.sys.coordID, "fence", "fence.park", c.fencedAt, ctx.Now(),
			"seq", strconv.FormatInt(m.Seq, 10))
	}
	c.flight().Recordf(ctx.Now(), c.sys.coordID, "unfence", "resumed after global batch %d", m.Seq)
	c.fenced = false
	c.fenceDone = m.Seq
	c.fenceSeq = 0
	c.fenceApply = nil
	ctx.Send(m.From, msgUnfenceAck{Seq: m.Seq},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	// Resume: refill the parked epoch (backlog queued behind the fence,
	// then the tick chain). Mid-recovery there is nothing to resume —
	// the post-recovery openEpoch sees fenced == false and runs normally.
	if st := c.exec; !c.recovering && st != nil && st.phase == phaseOpen &&
		!st.binding && len(st.batch) == 0 {
		c.fillEpoch(ctx, st)
	}
}

// onGlobalRead answers a sequencer reconnaissance read from committed
// worker state — but only while parked for exactly that batch with the
// replay fully drained, so the answer reflects the durable prefix and
// nothing else. (Reading the worker store directly is the same modeling
// shortcut EntityState uses: the parked store is stable, so the read is
// deterministic.) A crashed worker's store is unreadable: trigger
// recovery instead of answering; the durable fence survives it and the
// sequencer's stall guard re-sends.
func (c *Coordinator) onGlobalRead(ctx *sim.Context, m msgGlobalRead) {
	if !c.fenced || m.Seq != c.fenceSeq || c.recovering ||
		c.commit != nil || len(c.replaying) > 0 {
		return
	}
	if st := c.exec; st == nil || st.phase != phaseOpen || len(st.batch) != 0 {
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
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	ref := interp.EntityRef{Class: m.Class, Key: m.Key}
	row, ok := c.sys.workers[c.sys.OwnerIndex(ref)].committed.Lookup(ref)
	resp := msgGlobalState{Seq: m.Seq, Class: m.Class, Key: m.Key, Exists: ok}
	if ok {
		resp.State = row.Clone()
	}
	ctx.Send(m.From, resp, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// startApply runs the sequencer's write-set transaction through the
// parked epoch: assign it as the epoch's only member and close the batch
// immediately. From here the ordinary machinery takes over — execution
// on the workers (blind write-set install, see worker.go), validation,
// apply, response staging and group commit — so the apply inherits every
// durability and failure guarantee a normal transaction has. If the
// parked slot is busy (a binding replay tail, or a previous apply still
// committing), the apply waits in fenceApply for the next fenced epoch.
func (c *Coordinator) startApply(ctx *sim.Context, p pendingReq) {
	st := c.exec
	if st == nil || st.phase != phaseOpen || st.binding || len(st.batch) != 0 {
		c.fenceApply = &p
		return
	}
	c.GlobalApplies++
	c.flight().Recordf(ctx.Now(), c.sys.coordID, "global.batch",
		"executing write-set apply %s", p.req.Req)
	if tr := c.tracer(); tr.Enabled() {
		tr.Instant(c.sys.coordID, "fence", applyMethod, ctx.Now(),
			"trace", p.req.Trace.ID, "req", p.req.Req)
	}
	c.assign(ctx, st, p)
	st.consumedEnd = c.consumed
	c.enterPhase(ctx, st, phaseClosing)
}

// produceMarker appends a durable fence/unfence marker to the source
// log. Markers are never executed — the drain loop skips them — they
// exist so the restart scan can re-derive the fence state: a suffix
// whose last marker is a __fence__ means the crash landed inside the
// fence window.
func (c *Coordinator) produceMarker(ctx *sim.Context, method string, seq int64) {
	id := fmt.Sprintf("%s%d@%s", method, seq, c.sys.coordID)
	req := sysapi.Request{Req: id, Method: method, Args: []interp.Value{interp.IntV(seq)}}
	ctx.Work(c.sys.cfg.Costs.LogAppendCPU)
	if _, _, err := c.sys.RequestLog.Produce(sourceTopic, id, sysapi.MsgRequest{Request: req}); err == nil {
		c.seen[id] = true
	}
}

// scanFenceState re-derives the fence state from the durable markers in
// the source-log suffix (called from Recover, after the consumed cursor
// and the egress state are restored). The scan range [consumed, end) is
// sufficient: the cursor only passes a fence marker during a normal
// drain, which runs unfenced — i.e. after the balancing unfence was
// appended — and no snapshot (hence no checkpoint offset) is ever taken
// inside a fence window. An unanswered __apply__ under an unbalanced
// fence is the batch's write-set caught mid-commit; it re-executes from
// the log record once the binding replay drains (fenceApply), which is
// also why rebuildSeen absorbing the sequencer's apply re-sends is safe.
func (c *Coordinator) scanFenceState() {
	c.fenced, c.fenceSeq, c.fenceApply = false, 0, nil
	end, err := c.sys.RequestLog.End(sourceTopic, 0)
	if err != nil {
		return
	}
	var applyRec *pendingReq
	for pos := c.consumed; pos < end; pos++ {
		rec, ok, err := c.sys.RequestLog.Fetch(sourceTopic, 0, pos)
		if err != nil || !ok {
			break
		}
		m, ok := rec.Payload.(sysapi.MsgRequest)
		if !ok {
			continue
		}
		switch m.Request.Method {
		case fenceMethod:
			c.fenced = true
			c.fenceSeq = markerSeq(m.Request)
			applyRec = nil
		case unfenceMethod:
			c.fenced = false
			c.fenceSeq = 0
			if s := markerSeq(m.Request); s > c.fenceDone {
				c.fenceDone = s
			}
			applyRec = nil
		case applyMethod:
			p := pendingReq{req: m.Request, replyTo: m.ReplyTo, pos: pos}
			applyRec = &p
		}
	}
	if c.fenced {
		c.fencePending = 0
		if applyRec != nil && !c.answered(applyRec.req.Req) {
			c.fenceApply = applyRec
		}
	}
}

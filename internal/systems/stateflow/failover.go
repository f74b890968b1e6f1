// Sequencer crash recovery.
//
// The sequencer keeps no durable state of its own — by design, all of a
// global batch's recovery state lives in the shards' durable logs:
//
//   - The fence window itself: a shard parked for batch S carries an
//     unbalanced open fenceMarker, so "which shards are fenced, and for
//     what" survives any combination of shard and sequencer crashes.
//   - The batch manifest: every globalApply the sequencer sends points
//     at the one batchManifest of its batch (footprint, per-transaction
//     responses, every shard's apply — records.go), and a shard logs the
//     apply as it arrived. One durable apply anywhere is therefore enough
//     to finish the batch exactly as the dead incarnation would have.
//
// On reboot the sequencer queries every shard's fence state
// (msgSeqFenceQuery → msgSeqFenceReport) and distinguishes:
//
//   - Some fenced shard holds one of the batch's applies: the batch reached
//     its commit phase, so it may already be partially installed — and its
//     home shards may already have released responses. Roll it FORWARD:
//     rebuild the batch around the manifest (rederiveBatch), re-send its
//     applies (shards dedupe by the incarnation-stable apply id), then
//     unfence. Exactly-once holds because the sequencer releases nothing:
//     a response leaves through its home shard's journal, once, whichever
//     incarnation sent the apply.
//   - Shards are fenced but no apply is durable anywhere: nothing of the
//     batch committed and no response can have been released (a response
//     rides the group commit of a logged apply). Abandon it: unfence the
//     parked shards and let the clients' retries re-sequence the lost
//     transactions from scratch.
//
// An abandon is safe only if "no apply is durable" stays true after the
// reports: an apply the dead incarnation sent may still be in flight, and a
// shard still parked on its batch would log it — half of a batch whose
// transactions the retries then commit a second time. So a report is a
// promise. Every incarnation carries a ballot, its reboot instant (0 for
// the first), on its fence query and on every apply it sends. A parked
// shard durably records the query's ballot — on a fresh open fence marker,
// which its restart scan reads back — before it reports, and drops any
// apply whose ballot is lower. A rolled-forward batch's applies are re-sent
// under the new ballot, so they still land.
//
// What the reboot cannot lose is the memory of which transactions were
// answered, because the sequencer never had it: every batch, before a
// failover and after, asks each member's home shard under the fence
// whether its journal already answered the id (msgFence.Admit →
// msgFenceAck.Known, admitBatch), and a known member is re-served by that
// shard's ordinary ingress instead of being sequenced again. Roll-forward,
// abandon, re-serve under the fence: that is all of it.
package stateflow

import (
	"slices"

	"statefulentities.dev/stateflow/internal/sim"
)

// ---------------------------------------------------------------------------
// The rebooted sequencer.

// OnRestart implements sim.RestartHandler: the sequencer machine came
// back with its memory gone. Query every shard's durable fence state;
// completeRecovery resolves the in-flight batch once all have reported.
func (q *Sequencer) OnRestart(ctx *sim.Context) {
	q.Failovers++
	q.cur, q.slot = nil, nil
	q.queue = nil
	q.nextSeq = 0
	q.inFlight = map[string]bool{}
	q.reports = make([]*msgSeqFenceReport, len(q.sys.shards))
	q.recovering = true
	q.ballot = int64(ctx.Now())
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "failover",
			"sequencer rebooted: querying %d shards for fence state", len(q.sys.shards))
	}
	for _, sh := range q.sys.shards {
		ctx.Send(sh.coordID, msgSeqFenceQuery{Ballot: q.ballot},
			q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
	// A tick the dead incarnation armed fires before this one's deadline,
	// so it re-sends nothing on this incarnation's behalf (onTick).
	q.armTick(ctx)
}

func (q *Sequencer) onFenceReport(ctx *sim.Context, from string, m msgSeqFenceReport) {
	idx, ok := q.sys.shardOfCoord(from)
	if !ok || !q.recovering || idx != m.Shard {
		return
	}
	if q.reports[idx] != nil {
		return
	}
	q.reports[idx] = &m
	if !slices.Contains(q.reports, nil) {
		q.completeRecovery(ctx)
	}
}

// completeRecovery resolves the fence state the shards reported: advance
// nextSeq past every batch id any shard has seen, then roll the
// in-flight batch forward (a durable apply exists) or abandon it (none
// does — nothing committed, nothing was released).
func (q *Sequencer) completeRecovery(ctx *sim.Context) {
	q.recovering = false
	var apply *globalApply
	for _, r := range q.reports {
		q.nextSeq = max(q.nextSeq, r.FenceSeq, r.FenceDone)
		if r.FenceSeq != 0 && apply == nil {
			apply = r.Apply
		}
	}
	if apply != nil {
		q.rederiveBatch(ctx, apply.man)
	}
	// Release every parked shard the rolled-forward batch (if any) does
	// not cover: orphans of even older incarnations, or the whole fenced
	// set when the batch is being abandoned. Their fence watchdogs would
	// surface them eventually (maybeReleaseOrphan); releasing here saves
	// the stall timeout.
	fenced, released := 0, false
	for idx, r := range q.reports {
		if r.FenceSeq == 0 {
			continue
		}
		fenced++
		if b := q.cur; b != nil && r.FenceSeq == b.seq && slices.Contains(b.footprint, idx) {
			continue
		}
		released = true
		ctx.Send(q.sys.shards[idx].coordID, msgUnfence{Seq: r.FenceSeq},
			q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
	q.reports = nil
	if released && q.cur == nil {
		q.AbortedBatches++
		if f := q.sys.cfg.Flight; f.Enabled() {
			f.Recordf(ctx.Now(), sequencerID, "failover",
				"abandoned uncommitted batch: unfenced %d shards, clients will retry", fenced)
		}
	}
	if q.cur == nil {
		if f := q.sys.cfg.Flight; f.Enabled() {
			f.Recordf(ctx.Now(), sequencerID, "failover",
				"recovery complete: resuming at batch %d", q.nextSeq+1)
		}
		if len(q.queue) > 0 {
			q.startBatch(ctx)
		}
	}
}

// rederiveBatch rebuilds the in-flight batch around a durable manifest
// and enters it at the apply phase. Every downstream step is idempotent:
// re-sent applies dedupe (or re-serve their ack) by their
// incarnation-stable id, and re-sent unfences re-ack off the shards'
// fence-done high-water marks. The members' responses are not the
// sequencer's to send; their ids are marked in flight so a client retry
// waits for the batch instead of opening a fence window behind it.
func (q *Sequencer) rederiveBatch(ctx *sim.Context, man *batchManifest) {
	q.RederivedBatches++
	b := q.openBatch(ctx, man.seq)
	b.rederived, b.man = true, man
	b.footprint = append(b.footprint, man.footprint...) // the slot's, which the next batch overwrites
	for i := range man.applies {
		a := &man.applies[i]
		b.parts[a.shard].apply = a
	}
	for _, mt := range man.txns {
		q.inFlight[mt.req] = true
	}
	if man.seq > q.nextSeq {
		q.nextSeq = man.seq
	}
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "failover",
			"re-derived batch %d from durable manifest: %d txns, %d applies, rolling forward",
			man.seq, len(man.txns), len(man.applies))
	}
	q.enter(ctx, b, gApplying)
	q.armTick(ctx)
}

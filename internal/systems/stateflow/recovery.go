// The coordinator's failure handling: the failure detector, the rollback to
// the sealed snapshot, and the binding replay that rebuilds what the
// snapshot predates.
//
//   - Detect: one watchdog (onStallCheck) for whichever pipeline slot has
//     waited on the workers longest fires one stall timeout after the last
//     sign of life (alive).
//   - Roll back: Recover bumps the view, empties both slots, rebuilds the
//     queues from the journal and the source log, and tells every worker to
//     restore the snapshot; it retries the workers that have not answered
//     (retryRecover) until all have, then opens the next epoch
//     (onRecovered). A reboot (OnRestart) first restores the journal.
//   - Replay: binding epochs re-execute the released transactions the
//     snapshot predates, in release order (openBinding), each batch cut
//     down to its conflict-free prefix (cutBinding).
//
// Every wait on all workers — a commit slot's apply or snapshot, or a
// recovery's restore — counts its answers in the one set c.acks (ack).
package stateflow

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/snapshot"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// recovery is the coordinator state only failure handling writes, embedded
// in Coordinator.
type recovery struct {
	// recovering parks both pipeline slots while a rollback is in flight.
	recovering bool
	// replaying is the binding replay queue a recovery builds: requests
	// whose responses were already released to clients but whose effects
	// the restored snapshot predates. They re-execute first — in release
	// order, in dedicated binding epochs — so the rebuilt state agrees
	// with every response that already escaped, before any pending retry
	// or fresh suffix work commits (see Recover).
	replaying []pendingReq
	// window is how many queue members the next binding epoch takes: 1
	// after a recovery, doubled by every batch that commits whole, cut back
	// to the committed prefix length by one that does not (see cutBinding).
	window int
	// recoverAt and replayAt are when the recovery in progress started and
	// when its first binding epoch opened (replayAt < 0: none yet, or the
	// queue already drained) — the starts of the recovery.restore and
	// recovery.replay trace spans. A replay in flight also holds the fast
	// reads (readsHeld).
	recoverAt, replayAt time.Duration
	// progress counts accepted worker messages and progressAt is when the
	// last one was counted. The failure detector measures its patience from
	// that instant, so recovery fires exactly one stall timeout after the
	// last sign of life — and only when a phase made no progress at all for
	// that long (see alive, onStallCheck).
	progress   uint64
	progressAt time.Duration
	// stallArmed marks the failure detector's one watchdog in flight and
	// stallAt is the deadline it was armed for (see armStallCheck). A reboot
	// clears the flag: a check armed before the crash fires before any the
	// new incarnation arms, so onStallCheck drops it.
	stallArmed bool
	stallAt    time.Duration
}

// ackSet collects the workers' answers to the wait on every worker in
// flight.
type ackSet map[string]bool

// stalled returns the slot the failure detector watches — the one that has
// waited on the workers longest (nil: neither slot waits on them) — and the
// detector's deadline: one stall timeout after the later of that slot's
// phase start and the last counted worker answer.
func (c *Coordinator) stalled() (*epochState, time.Duration) {
	var oldest *epochState
	for _, st := range [...]*epochState{c.commit, c.exec} {
		if st != nil && st.phase != phaseOpen && (oldest == nil || st.phaseAt < oldest.phaseAt) {
			oldest = st
		}
	}
	if oldest == nil {
		return nil, 0
	}
	return oldest, max(oldest.phaseAt, c.progressAt) + c.sys.cfg.StallTimeout
}

// armStallCheck arms the failure detector's watchdog for the current
// deadline, unless it is armed already: the deadline only moves later while
// a slot waits, so the armed check fires at or before it and re-arms itself
// (onStallCheck). One check is in flight per coordinator, whatever the
// number of phases entered.
func (c *Coordinator) armStallCheck(ctx *sim.Context) {
	if c.stallArmed {
		return
	}
	if st, at := c.stalled(); st != nil {
		c.stallArmed, c.stallAt = true, at
		ctx.After(at-ctx.Now(), msgStallCheck{})
	}
}

// alive counts one accepted worker answer — a root response or a fresh ack
// — as a sign of life and stamps when it came: the failure detector's
// deadline is that instant plus the stall timeout.
func (c *Coordinator) alive(ctx *sim.Context) {
	c.progress++
	c.progressAt = ctx.Now()
}

// ack records from's answer to the wait on every worker in flight. Only a
// worker's first answer counts, and it is the only kind that is a sign of
// life for the failure detector: a duplicate changes nothing. done: the
// answer completed the set, so the phase advances.
func (c *Coordinator) ack(ctx *sim.Context, from string) (done bool) {
	if c.acks[from] {
		return false
	}
	if c.acks == nil {
		c.acks = make(ackSet, len(c.sys.workerIDs))
	}
	c.acks[from] = true
	c.alive(ctx)
	return len(c.acks) == len(c.sys.workerIDs)
}

// onStallCheck is the failure detector's watchdog. If a slot still waits on
// the workers and its deadline — one stall timeout after the later of its
// phase start and the last counted worker answer — has passed, a worker is
// presumed dead and recovery starts; either slot stalling recovers the whole
// system. Otherwise the watchdog re-arms for the deadline — slow is not dead
// — or, with no slot waiting, stops until the next phase entry arms it
// again: detection is one StallTimeout after the last sign of life, wherever
// the checks happen to land. A check that fires before the deadline it was
// armed for is one a crash orphaned (see stallArmed). A recovery in progress
// has no stall guard: its tick is the retry (retryRecover), never a
// re-entry.
func (c *Coordinator) onStallCheck(ctx *sim.Context) {
	if !c.stallArmed || ctx.Now() < c.stallAt {
		return
	}
	c.stallArmed = false
	st, at := c.stalled()
	if st == nil {
		return // nothing waits on the workers (a recovery holds no slot)
	}
	if ctx.Now() < at {
		c.armStallCheck(ctx)
		return
	}
	// How long the workers were silent before the detector gave up on them:
	// the one term of an outage that is neither downtime nor recovery work.
	if tr := c.tracer(); tr.Enabled() {
		tr.Span(c.sys.coordID, "recovery", "recovery.detect", c.progressAt, ctx.Now(),
			"epoch", strconv.FormatInt(st.epoch, 10))
	}
	c.Recover(ctx)
}

// Recover rolls the system back to the latest snapshot: restart crashed
// workers, restore every worker image, discard the in-flight epochs, and
// replay the source suffix. Delivered-response deduplication keeps output
// exactly-once across the replay. It has three entries — a stall the
// failure detector fired on (onStallCheck), a coordinator reboot (OnRestart)
// and a fence ack that found a worker dead (ackFence) — and
// none of them runs while a recovery is in progress: that one finishes by
// retrying (retryRecover), not by being entered again.
func (c *Coordinator) Recover(ctx *sim.Context) {
	c.Recoveries++
	// View change: bumping the epoch *before* the restore makes every
	// message of the discarded world — in-flight events, decides, delayed
	// snapshot requests — provably stale to any worker that processes the
	// recovery, with no global knowledge required (workers just keep an
	// epoch high-water mark). The bump is fsynced before the recover
	// messages leave, so even a crash right here cannot fork the view.
	c.epoch++
	c.journal.advance(ctx, c.epoch, true)
	// The recovery phase is itself failure-guarded: a worker still held
	// down, a lost recover message or a lost ack is retried every
	// recoverRetryEvery until every worker has answered.
	c.recoverAt = ctx.Now()
	c.recovering = true
	c.exec, c.commit = nil, nil
	ctx.After(c.recoverRetryEvery(), msgRecoverRetry{Epoch: c.epoch})
	c.pending, c.replaying = nil, nil
	c.window, c.replayAt = 1, -1
	// Every epoch up to the view is settled or discarded, so reads need wait
	// for no install, and a read answered from a discarded cut is asked
	// again once the recovery drains.
	c.decided = c.epoch
	c.holdUnanswered()
	var snapID int64
	cut := time.Duration(-1) // no snapshot: every release postdates the empty state
	if meta, ok := c.restorePoint(); ok {
		snapID = meta.ID
		cut = c.sealedCut
		c.consumed = meta.SourceOffsets[sourceTopic][0]
		// Re-queue the consumed-but-pending requests the snapshot
		// recorded: their positions predate the offset, so the suffix
		// replay alone would lose them. Answered ones are skipped — a
		// definitive error keeps its recorded response, and a released
		// commit is the binding replay's to re-execute.
		for _, pos := range meta.PendingPositions[sourceTopic] {
			rec, ok := c.readSource(pos)
			if !ok {
				continue
			}
			if c.journal.answered(rec.txn.req.Req) {
				continue
			}
			c.pending = append(c.pending, rec.txn)
		}
	} else {
		c.consumed = 0
	}
	c.buildReplaying(cut)
	c.rebuildSeen()
	// Re-derive the fence state from the durable markers in the log
	// suffix: a shard that crashed (or stalled) inside a global batch's
	// fence window comes back still fenced and parks again after the
	// binding replay, instead of resuming normal epochs between the
	// sequencer's reads and its writes.
	c.scanFenceState()
	if c.fenceSeq != 0 && ctx.Now() >= c.parkAt {
		// A rebuilt park needs a watchdog unless one is due: a stall
		// recovery keeps the live one. A reboot cleared parkAt, so a tick
		// armed before the crash fires before the new deadline and is
		// dropped.
		c.armParkWatchdog(ctx)
	}
	clear(c.acks)
	c.snapshotID = snapID
	c.tap.restored(c.epoch, snapID)
	c.RestoredSnapshots = append(c.RestoredSnapshots, snapID)
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "recovery",
			"epoch %d: restored snapshot %d, %d binding replays, %d pending",
			c.epoch, snapID, len(c.replaying), len(c.pending))
	}
	for _, w := range c.sys.workerIDs {
		c.sendRecover(ctx, w)
	}
}

// OnRestart implements sim.RestartHandler: the coordinator machine came
// back from a crash with its memory gone. Restore the journal — the epoch
// high-water mark and the delivered responses, exactly what exactly-once
// needs — then run the ordinary rollback recovery for everything else
// (Recover empties the slots and the queues).
func (c *Coordinator) OnRestart(ctx *sim.Context) {
	c.Restarts++
	if c.exec != nil && c.commit != nil {
		// Pre-crash in-memory state is observable to the test harness even
		// though the protocol discards it: record that this reboot landed
		// inside the two-epochs-in-flight window.
		c.MidPipelineRestarts++
	}
	c.progress, c.progressAt = 0, 0
	c.stallArmed = false
	// The fence window is volatile here; Recover's marker scan rebuilds it,
	// raising the completed high-water mark the checkpoint carried.
	c.fencePending, c.fenceSeq = msgFence{}, 0
	c.fenceApply, c.ballot = nil, 0
	c.parkAt = 0
	c.reads, c.held = nil, nil
	img := c.journal.restore(ctx)
	c.CorruptLogRecords += img.corrupt
	c.marks = img.marks
	if !c.sys.cfg.DisablePipelining {
		// Compensate for the single epoch-advance record the pipelined
		// schedule allows to be volatile: it may have been torn by the
		// crash, so the durable high-water mark can trail the highest
		// epoch ever spoken by exactly one. Over-bumping here (plus the
		// view-change bump in Recover) restores epoch > everything spoken.
		c.epoch++
	}
	// Forwarding numbers restart above every one the lost incarnation could
	// have issued (fewer than 2^32 per epoch), so no late answer to one of
	// its reads can match a new read.
	c.readSeq = aria.TID(c.epoch) << 32
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "restore",
			"rebooted from dlog: epoch %d, %d delivered, %d log records",
			c.epoch, c.journal.size(), img.records)
	}
	c.Recover(ctx)
}

func (c *Coordinator) onRecovered(ctx *sim.Context, from string, m msgRecovered) {
	// The epoch check rejects acks from an earlier recovery round that
	// happened to restore the same snapshot id — the worker they name has
	// not rolled back in *this* round.
	if !c.recovering || m.SnapshotID != c.snapshotID || m.Epoch != c.epoch {
		return
	}
	if !c.ack(ctx, from) {
		return
	}
	if tr := c.tracer(); tr.Enabled() {
		tr.Span(c.sys.coordID, "recovery", "recovery.restore", c.recoverAt, ctx.Now(),
			"epoch", strconv.FormatInt(c.epoch, 10), "snapshot", strconv.FormatInt(c.snapshotID, 10))
	}
	// Epoch bump invalidates every stale in-flight message, then the
	// binding queue and the source suffix replay through the batch
	// machinery.
	c.recovering = false
	c.openEpoch(ctx)
	c.serveHeld(ctx)
}

// recoverRetryEvery is how often a recovery in progress re-sends its recover
// message to the workers that have not acknowledged it: a few epoch
// intervals — long enough that a live worker's restore and ack normally
// beat it, short enough that a worker coming out of a hold-down is rolled
// back at once instead of a stall timeout later.
func (c *Coordinator) recoverRetryEvery() time.Duration { return 4 * c.sys.cfg.EpochInterval }

// retryRecover re-sends the recovery in progress to the workers still
// missing from c.acks — one the fault schedule held down when Recover
// ran (respawn refused, message dropped), a lost recover message or a lost
// ack. It is a re-send, not a recovery: same snapshot id and epoch, no
// journal advance, no rebuilt queues. A worker that already restored answers
// the duplicate with a bare re-ack (onRecover), so it is idempotent.
func (c *Coordinator) retryRecover(ctx *sim.Context) {
	c.RecoverRetries++
	var missing []string
	for _, w := range c.sys.workerIDs {
		if !c.acks[w] {
			missing = append(missing, w)
			c.sendRecover(ctx, w)
		}
	}
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "recover.retry",
			"epoch %d: snapshot %d re-sent to %s", c.epoch, c.snapshotID, strings.Join(missing, " "))
	}
	ctx.After(c.recoverRetryEvery(), msgRecoverRetry{Epoch: c.epoch})
}

// sendRecover tells one worker to roll back to the recovery's snapshot,
// respawning it first if it is dead (the cluster-manager model; a no-op
// while the fault schedule holds it down). A live worker keeps its CPU
// backlog and merely rolls its state back when the message reaches it.
func (c *Coordinator) sendRecover(ctx *sim.Context, w string) {
	if c.sys.restart != nil && (c.sys.isCrashed == nil || c.sys.isCrashed(w)) {
		c.sys.restart(w)
	}
	ctx.Send(w, msgRecover{SnapshotID: c.snapshotID, Epoch: c.epoch},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// restorePoint returns the snapshot recovery may use: exactly the latest
// sealed snapshot — never a merely image-complete one, whose effects may
// depend on delivered-records a crash could still tear.
func (c *Coordinator) restorePoint() (snapshot.Meta, bool) {
	if c.sealed == 0 {
		return snapshot.Meta{}, false
	}
	return c.sys.Snapshots.Get(c.sealed)
}

// buildReplaying computes the binding prefix of a recovery: every
// released (or staged — its sync is in flight and cannot be recalled)
// successful response whose release postdates the restored snapshot's
// cut. Those responses escaped to clients, but the restored images
// predate their effects — so the rebuilt state is only consistent with
// what clients saw if their transactions re-commit, before anything
// else, in the order the responses were released.
//
// Release order is reconstructed as (release time, source position):
// response staging advances virtual time per append, so release time is
// the journal's append order itself — the original effective serial order
// — and position only breaks ties. Re-executing that sequence against the
// restored images reproduces each member's original observations: binding
// epochs run it in batches, and a member that conflicts with an earlier
// one in its batch is cut off with everything behind it and runs in the
// next (see cutBinding), so conflicting members always re-commit in queue
// order.
//
// One queue member per source record: a global apply is pointed at by its
// own ack and by every embedded home-shard response staged with it, and
// queueing it once per entry would re-install the same write-set several
// times — copies that WAW-conflict with each other and cut every batch
// they share. The earliest release among the entries places it.
func (c *Coordinator) buildReplaying(cut time.Duration) {
	released := map[int64]time.Duration{} // source position → earliest release
	add := func(ent deliveredEntry) {
		if ent.resp.Err != "" || ent.at <= cut {
			return // definitive error (no effects), or effects in the images
		}
		// ent.pos holds a client request or — for an apply's ack and the
		// embedded responses staged with it — the apply itself.
		if at, ok := released[ent.pos]; !ok || ent.at < at {
			released[ent.pos] = ent.at
		}
	}
	c.journal.released(add)
	order := make([]int64, 0, len(released))
	for pos := range released {
		order = append(order, pos)
	}
	slices.SortFunc(order, func(a, b int64) int {
		return cmp.Or(cmp.Compare(released[a], released[b]), cmp.Compare(a, b))
	})
	c.replaying = make([]pendingReq, 0, len(order))
	for _, pos := range order {
		if rec, ok := c.readSource(pos); ok {
			c.replaying = append(c.replaying, rec.txn)
		}
	}
	c.BindingReplays += len(c.replaying)
}

// rebuildSeen reconstructs the journal's logged arrivals from durable
// ground truth: every answered response (the journal's own), every pending
// retry the snapshot recorded, and every id in the source-log suffix the
// replay will re-consume.
func (c *Coordinator) rebuildSeen() {
	c.journal.resetSeen()
	for _, p := range c.pending {
		c.journal.logged(p.req.Req)
	}
	for pos, end := c.consumed, c.sys.RequestLog.End(); pos < end; pos++ {
		rec, _ := c.readSource(pos)
		if rec.marker == nil {
			c.journal.logged(rec.txn.req.Req)
		}
	}
}

// openBinding fills a binding epoch with the next window of the replay
// queue, in release order (so queue order is TID order), and closes the
// batch in the same event: the queue is known in full, there is no
// arrival an open window could wait for, and the epoch timer would only
// add its interval to the outage. The batch then runs the ordinary
// execute/validate/apply machinery; cutBinding decides at validation how
// much of it commits. A global apply ends the window: it reserves nothing
// and installs at the decide, after every lower TID, so a member behind it
// in the same batch would read the rows from before it and no validation
// would notice.
func (c *Coordinator) openBinding(ctx *sim.Context, st *epochState) {
	st.binding = true
	c.BindingEpochs++
	if c.replayAt < 0 {
		c.replayAt = ctx.Now()
	}
	n := min(c.window, len(c.replaying))
	for i, p := range c.replaying[:n] {
		c.assign(ctx, st, p)
		if p.apply != nil {
			n = i + 1
			break
		}
	}
	c.replaying = c.replaying[n:]
	c.closeBatch(ctx, st)
}

// cutBinding settles a binding batch at its validation: the longest
// prefix of the batch (in queue order, which is TID order) without a
// conflict abort commits, and everything from the first aborted member on
// — aborted or not — goes back to the front of the replay queue, in
// order, to run in the next binding epoch.
//
// This is what makes batching an order-constrained replay sound. Aria
// commits every member without a RAW or WAW conflict against a lower TID,
// so committing the whole surviving set would let a later member commit
// against state that lacks an aborted earlier member's write — an order
// inversion the released responses already contradict, and with
// data-dependent footprints one the aborted member's re-execution can
// drift away from, so no later conflict check would ever notice it. A
// member of the prefix has no such exposure: every lower TID commits with
// it, none of them wrote anything it read or wrote, so executing it
// against the pre-batch state is executing it after them — the batch's
// commits are exactly the queue's serial order. The lowest TID has nothing
// to conflict with, so the prefix is never empty and every batch makes
// progress.
//
// The window adapts with no knob: a batch that commits whole doubles it
// (up to MaxBatch), a cut sets it to the prefix length — the conflict
// spacing just observed. A queue of transactions on one hot key therefore
// degrades to the one-per-epoch serial order, never below it.
func (c *Coordinator) cutBinding(ctx *sim.Context, st *epochState) {
	cut := slices.IndexFunc(st.txns, func(t *txnState) bool { return t.aborted })
	if cut < 0 {
		c.window *= 2
		if limit := c.sys.cfg.MaxBatch; limit > 0 && c.window > limit {
			c.window = limit
		}
		return
	}
	c.window = max(cut, 1)
	requeue := make([]pendingReq, 0, len(st.txns)-cut+len(c.replaying))
	for _, t := range st.txns[cut:] {
		t.aborted = true
		p := t.pendingReq
		p.arrivedAt = ctx.Now()
		requeue = append(requeue, p)
	}
	c.replaying = append(requeue, c.replaying...)
}

// replayDrained marks the end of a recovery's binding replay — the last
// binding batch applied whole with nothing queued or in flight behind it,
// so every released effect is rebuilt — and closes the recovery.replay
// trace span. Purely observational.
func (c *Coordinator) replayDrained(ctx *sim.Context, st *epochState) {
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "replay.drained",
			"epoch %d: binding replay drained in %v", st.epoch, ctx.Now()-c.replayAt)
	}
	if tr := c.tracer(); tr.Enabled() {
		tr.Span(c.sys.coordID, "recovery", "recovery.replay", c.replayAt, ctx.Now(),
			"epoch", strconv.FormatInt(st.epoch, 10))
	}
	c.replayAt = -1
	c.serveHeld(ctx)
}

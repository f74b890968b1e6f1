// The StateFlow coordinator: combines the ingress router (request intake,
// replayable source, TID assignment), the Aria batch sequencer (epoch
// close, validation over the shipped reservation sets, decide), the
// snapshot trigger, the failure detector and the egress router
// (deduplicated client responses with durable response-replay). The
// paper's deployment dedicates a single core to it ("StateFlow requires a
// single core coordinator", §4).
//
// Four files hold it. This one owns the component — its fields, message
// dispatch and wiring — and everything around a batch: request intake, the
// two-slot pipeline (opening, filling and releasing epochs), the failure
// detector, snapshots and checkpoints, and recovery. epoch.go owns what
// happens to a batch between its first assignment and its last settle —
// epochState, the transaction record and the round loop. journal.go owns
// the exactly-once border (below). fence.go adds the shard's part in the
// sequencer's global batches.
//
// Epoch pipelining: the coordinator keeps a two-slot stage table — exec
// (the open/executing epoch) and commit (the epoch in apply/snapshot) — and
// runs them concurrently. When epoch N's batch is fully executed and the
// commit slot is free, N is promoted into it, N+1 opens, and N is validated
// and decided in the same event: its responses are staged and the
// group-commit sync that releases them — N+1's advance record included — is
// issued right there. N+1 accumulates arrivals and dispatches execution
// events while N applies, runs its chain and snapshots. Workers demultiplex
// by epoch (per-epoch workspaces) and buffer N+1's events until N's final
// decide is applied locally, so serializability is never at stake — the
// overlap hides the commit phases behind the next epoch's open window.
// Config.DisablePipelining restores the serial schedule.
//
// Self-clocked close: the open batch closes as soon as it is non-empty,
// every member has finished and the commit slot is free (selfClose, checked
// at every finish and at releaseCommit) — group commit's leader rule, so
// what arrives while the commit stage is busy forms the next batch. The
// epoch timer (onTick) only bounds the wait of a batch whose members are
// still executing, and reticks an idle one. The failure detector is one
// self-rearming watchdog (onStallCheck) for whichever slot has waited on
// the workers longest. Neither timer carries a value, so more epochs cost
// no more timer allocations.
//
// The exactly-once border — ingress dedup, the durable egress buffer and
// the write-ahead ordering of both against the epoch records — is the
// journal (journal.go), a value field of the coordinator; this file drives
// it in verbs and holds no log position of its own. After a crash,
// OnRestart restores the journal and runs the ordinary snapshot-rollback
// recovery.
package stateflow

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/snapshot"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

type phase int

const (
	phaseOpen phase = iota
	phaseClosing
	phaseApply
	phaseSnapshot
)

// CoordinatorStats are the coordinator's counters, embedded in Coordinator
// so the hot paths and tests read them as its own fields, and published
// through RegisterMetrics under "coordinator.".
type CoordinatorStats struct {
	Commits      int
	Aborts       int
	Failures     int // transactions that exhausted retries
	Recoveries   int
	EpochsClosed int
	// RecoverRetries counts the periodic re-sends of a recovery's recover
	// message to workers that had not acknowledged it yet (a held-down
	// worker, a lost message or a lost ack) — retries of one recovery, not
	// recoveries.
	RecoverRetries int
	// FallbackChains counts the epochs whose conflict aborts re-executed as
	// a chain and FallbackRounds their depths (the rounds the same conflicts
	// would take behind a barrier); FallbackCommits the transactions the
	// fallback phase rescued (a subset of Commits — they would have been
	// next-batch retries without it). FallbackSpills is always 0: a chain
	// holds every conflict abort of its batch. It stays only because the
	// repo benchmark's trace reads it (aria.fallback_spills), and goes with
	// that row.
	FallbackRounds  int
	FallbackChains  int
	FallbackCommits int
	FallbackSpills  int
	// FallbackDriftDemotions counts the chain members sent to the next batch
	// because their re-execution left its queued footprint: it reached an
	// entity the first execution had not, so nothing ordered it there.
	FallbackDriftDemotions int
	// LateDuplicates counts arrivals absorbed by the incarnation dedup
	// floor: duplicates so late that their originals were already pruned
	// from the journal by the retention window.
	LateDuplicates int
	// CorruptLogRecords counts durable-log records (or checkpoints) a
	// reboot could not decode and recovered without — corruption outside
	// the device's crash contract, never expected to be non-zero.
	CorruptLogRecords int
	// Restarts counts coordinator reboots (crash recoveries via the
	// durable log), a subset of Recoveries. MidPipelineRestarts counts the
	// reboots that interrupted two in-flight epochs (the commit slot was
	// occupied alongside an open exec slot when the crash landed) — the
	// overlap window the pipelined recovery path must get right.
	Restarts            int
	MidPipelineRestarts int
	// Replays counts responses re-served from the durable egress buffer
	// to retrying clients. BindingReplays counts the released transactions
	// recoveries queued for re-execution to rebuild the effects the
	// restored snapshot predated; BindingEpochs the binding epochs that
	// re-executed them (a requeued member runs in more than one).
	Replays        int
	BindingReplays int
	BindingEpochs  int
	// FastReads counts the read-only calls answered on the fast path
	// (read.go), every serve of a retried one included.
	FastReads int
	// GlobalFences counts fence parks for the sharded global-commit
	// protocol; GlobalApplies counts executed global write-set applies.
	GlobalFences  int
	GlobalApplies int
}

// Coordinator is the StateFlow coordinator node.
type Coordinator struct {
	sys *System

	// epoch is the latest epoch ever opened (the exec slot's epoch outside
	// recovery); it is the value the view-change guard reasons about.
	epoch   int64
	nextTID aria.TID

	// The pipeline stage table. exec is the epoch accepting and executing
	// its batch; commit is the epoch in apply/fallback/snapshot.
	// Serial schedule: at most one is non-nil at a time (exec moves into
	// commit and a new exec opens only when commit settles). Pipelined
	// schedule: both run concurrently. recovering parks both slots while a
	// rollback is in flight. spare is the slot releaseCommit freed last: the
	// next openEpoch resets and reuses it, so an epoch allocates no slot. A
	// slot Recover discards is dropped instead — nothing routes to a slot
	// by pointer, only by epoch (stageFor).
	exec       *epochState
	commit     *epochState
	spare      *epochState
	recovering bool

	// Pending requests not yet assigned (arrivals during commit phases and
	// retries of aborted transactions).
	pending []pendingReq

	// validator checks every batch for conflicts (epochState.validate),
	// emptied for each one, so validation allocates nothing per epoch.
	validator aria.Validator

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

	// snapCut is the aligned-cut virtual time of the snapshot in flight
	// (when its epoch staged its last response) and sealedCut the sealed
	// snapshot's: a delivered entry released after the restored snapshot's
	// cut has effects the images predate, which is exactly what makes it
	// binding. Recovery restores only the sealed snapshot, so its cut is the
	// only one it reads; it rides the dlog checkpoint so the classification
	// survives reboots.
	snapCut, sealedCut time.Duration

	// Replayable source position: how many log records have been drawn
	// into batches.
	consumed int64

	// snapDone and recovered collect the workers' answers to the snapshot
	// in flight and to the recovery in progress.
	snapDone   ackSet
	recovered  ackSet
	snapshotID int64

	// sealed is the newest snapshot id whose seal is durable (carried in
	// the latest dlog checkpoint). A snapshot's images may be complete in
	// the store while its seal is still volatile; recovery restores only
	// up to sealed, so the snapshot path never needs to force the WAL
	// ahead of the images — the checkpoint that seals the snapshot is the
	// single sync that makes both the images and the delivered-records
	// they depend on recoverable together.
	sealed int64

	// journal is the exactly-once border: ingress dedup, staged and
	// delivered responses, and the durable log they and the epoch advances
	// are written to (journal.go).
	journal journal

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

	CoordinatorStats

	// RestoredSnapshots records, per recovery, the snapshot id it rolled
	// back to (0: reset to empty) — tests assert every restored id was a
	// complete snapshot.
	RestoredSnapshots []int64

	// The fast-read path (read.go). decided is the newest epoch whose batch
	// decide was broadcast — whose responses may be out — or a recovery's
	// view epoch (-1: none yet; a worker's applied epoch starts there too); a
	// read is stamped with its successor. reads are the forwarded reads
	// awaiting their worker's answer, by forwarding number (readSeq the last
	// one issued); held the reads waiting for a hold to end (see readsHeld);
	// freeReads the records of answered reads, for onRead to reuse.
	decided   int64
	readSeq   aria.TID
	reads     map[aria.TID]*fastRead
	held      []*fastRead
	freeReads []*fastRead

	// tap is the commit-order tap (nil unless Config.TraceCommits).
	tap *commitTap

	// Sharded global-commit fence state (see fence.go and sharded.go).
	// fencePending is a fence request received but not yet quiesced (Seq 0:
	// none). fenceSeq is the global batch the shard is parked for, from the
	// durable open fence marker to its closing one (0: not parked; batch
	// ids start at 1). fenceDone is the highest batch whose closing
	// marker was appended (idempotent re-acks for lost acks); it rides the
	// journal's checkpoints, so a reboot whose restored cursor is past the
	// marker still knows the batch is done. fenceApply
	// holds an unanswered apply record the recovery scan found in the log
	// suffix; it executes once the binding replay drains.
	fencePending msgFence
	fenceSeq     int64
	fenceDone    int64
	fenceApply   *pendingReq
	// ballot is the highest sequencer ballot this shard promised
	// (onSeqFenceQuery): an apply from a lower one is dropped. Inside a
	// fence window every open marker records it, so a reboot keeps it.
	ballot int64
	// parkAt is the deadline of the park watchdog last armed
	// (armParkWatchdog); a reboot clears it.
	parkAt time.Duration
	// fencedAt is when the shard parked (trace-span start of the fence
	// window). Purely observational.
	fencedAt time.Duration
}

// tracer and flight return the deployment's observability sinks (nil
// handles are accepted by every obs method as no-ops). Instrumentation
// sites only read ctx.Now() — never ctx.Work or ctx.Rand — so tracing
// cannot perturb a deterministic run.
func (c *Coordinator) tracer() *obs.Tracer         { return c.sys.cfg.Tracer }
func (c *Coordinator) flight() *obs.FlightRecorder { return c.sys.cfg.Flight }

func newCoordinator(sys *System) *Coordinator {
	c := &Coordinator{
		sys:      sys,
		exec:     &epochState{phase: phaseOpen},
		journal:  newJournal(sys.coordID, &sys.cfg, sys.Dlog),
		replayAt: -1,
		decided:  -1,
	}
	if sys.cfg.TraceCommits {
		c.tap = newCommitTap()
		c.journal.tapRead = c.tap.read
	}
	return c
}

// OnStart arms the first epoch's timer.
func (c *Coordinator) OnStart(ctx *sim.Context) {
	c.armTick(ctx, c.exec)
}

// OnMessage implements sim.Handler.
func (c *Coordinator) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	switch m := msg.(type) {
	case sysapi.MsgRequest:
		c.onRequest(ctx, msg, m)
	case msgEpochTick:
		c.onTick(ctx)
	case msgTxnFinished:
		c.onFinished(ctx, m)
	case msgChainRelease:
		c.onDrifted(ctx, m)
	case msgApplied:
		c.onApplied(ctx, from, m)
	case msgSnapshotDone:
		c.onSnapshotDone(ctx, from, m)
	case msgLogSynced:
		c.onLogSynced(ctx, m)
	case msgStallCheck:
		c.onStallCheck(ctx)
	case msgRecoverRetry:
		if c.recovering && m.Epoch == c.epoch {
			c.retryRecover(ctx)
		}
	case msgRecovered:
		c.onRecovered(ctx, from, m)
	case msgFence:
		c.onFence(ctx, from, m)
	case msgUnfence:
		c.onUnfence(ctx, from, m)
	case msgGlobalApply:
		c.onGlobalApply(ctx, m)
	case msgFenceParkTick:
		c.onFenceParkTick(ctx)
	case msgSeqFenceQuery:
		c.onSeqFenceQuery(ctx, from, m)
	}
}

// stageFor routes an epoch-stamped worker message to the pipeline slot it
// belongs to (nil: the epoch is not in flight — the message is stale).
func (c *Coordinator) stageFor(epoch int64) *epochState {
	if c.exec != nil && c.exec.epoch == epoch {
		return c.exec
	}
	if c.commit != nil && c.commit.epoch == epoch {
		return c.commit
	}
	return nil
}

// batchFull reports whether the slot's batch reached the configured cap.
func (c *Coordinator) batchFull(st *epochState) bool {
	return c.sys.cfg.MaxBatch > 0 && len(st.txns) >= c.sys.cfg.MaxBatch
}

// admit passes an arrival — a client request or a global apply — through
// the journal's ingress dedup and counts what it absorbed. True: the
// arrival is new; the caller logs it and reports it to the journal.
func (c *Coordinator) admit(ctx *sim.Context, id, replyTo string) bool {
	switch c.journal.admit(ctx, id, replyTo) {
	case admitNew:
		return true
	case admitReplayed:
		c.Replays++
	case admitLate:
		c.LateDuplicates++
	}
	return false
}

// onRequest appends the arrival to the replayable source log and drains the
// log into the open batch. A read-only call takes the fast-read path instead
// (read.go). msg is m as delivered: the log keeps it as is, so it boxes the
// request into no new interface value.
func (c *Coordinator) onRequest(ctx *sim.Context, msg sim.Message, m sysapi.MsgRequest) {
	if c.sys.fastRead(m.Request) {
		c.onRead(ctx, m)
		return
	}
	id := m.Request.Req
	if !c.admit(ctx, id, m.ReplyTo) {
		return
	}
	if _, _, err := c.sys.RequestLog.Produce(sourceTopic, id, msg); err != nil {
		return
	}
	c.journal.logged(id)
	// A logged request enters a batch only through the drain, in log order:
	// the cursor never passes a record it did not assign.
	c.drainSource(ctx)
}

// armTick sets the open batch's deadline one EpochInterval from now and arms
// the timer that enforces it.
func (c *Coordinator) armTick(ctx *sim.Context, st *epochState) {
	st.closeAt = ctx.Now() + c.sys.cfg.EpochInterval
	ctx.After(c.sys.cfg.EpochInterval, msgEpochTick{})
}

// onTick closes the open batch at its deadline: the upper bound on the wait
// of a batch whose members are still executing while the commit slot is busy
// — usually the batch closes itself before (selfClose). A tick that fires
// before the exec slot's deadline was armed for an earlier batch and is
// ignored. An empty batch first drains pending retries — the pipelined
// commit stage spills them while the exec slot is already open, and with no
// fresh arrivals the tick is the only thing that would ever pick them up —
// then the source log, whose backlog a dropped fence leaves behind.
func (c *Coordinator) onTick(ctx *sim.Context) {
	st := c.exec
	if c.recovering || st == nil || st.phase != phaseOpen || ctx.Now() < st.closeAt {
		return
	}
	if c.fenceSeq != 0 {
		// Parked for a global batch: the fence epoch has no timer-driven
		// closes — it closes when the sequencer's apply arrives, and the
		// tick chain resumes at unfence.
		return
	}
	if len(st.txns) == 0 {
		c.drainPending(ctx, st)
		c.drainSource(ctx)
	}
	if len(st.txns) == 0 {
		if c.fencePending.Seq != 0 && c.maybeFence(ctx) {
			return // parked; the tick chain stops until unfence
		}
		// Nothing arrived: stay open and retick.
		c.armTick(ctx, st)
		return
	}
	c.closeBatch(ctx, st)
}

// enterPhase transitions a slot to a worker-dependent phase and makes sure
// the failure detector watches it: if the slot is still stuck in a phase
// that waits on the workers — with no worker progress at all — one stall
// timeout after it began, a worker is presumed dead and recovery starts.
// Every phase that waits on all workers (execution, apply, snapshot) is
// guarded, so a worker crash or a lost message can never deadlock the
// pipeline; recovery, which waits on them too, retries instead (see
// retryRecover).
func (c *Coordinator) enterPhase(ctx *sim.Context, st *epochState, p phase) {
	st.phase = p
	st.phaseAt = ctx.Now()
	c.armStallCheck(ctx)
}

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

// ack records from's answer to a phase that waits on every worker (see
// ackSet.add); a fresh one is a sign of life.
func (c *Coordinator) ack(ctx *sim.Context, a *ackSet, from string) (fresh, done bool) {
	fresh, done = a.add(from, len(c.sys.workerIDs))
	if fresh {
		c.alive(ctx)
	}
	return fresh, done
}

// phaseSpan closes the trace span of the slot's current phase (begun at
// phaseAt). Binding epochs carry a "binding" arg, so a trace separates a
// recovery's replay from ordinary traffic.
func (c *Coordinator) phaseSpan(ctx *sim.Context, st *epochState, name string, extra ...string) {
	tr := c.tracer()
	if !tr.Enabled() {
		return
	}
	args := append([]string{"epoch", strconv.FormatInt(st.epoch, 10), "round", strconv.Itoa(st.round)}, extra...)
	if st.binding {
		args = append(args, "binding", "1")
	}
	tr.Span(c.sys.coordID, "epoch", name, st.phaseAt, ctx.Now(), args...)
}

// CommitSerials returns the commit-order tap (request id → serial
// position; empty unless Config.TraceCommits, see commitTap). A fast read
// sits behind the last commit of the epoch whose state it saw; one served
// more than once is placed by the serve whose value kept reports the client
// kept (nil kept: the latest serve). The linearizability checker's serial
// mode consumes it.
func (c *Coordinator) CommitSerials(kept func(id string) (interp.Value, bool)) map[string]int64 {
	return c.tap.serials(kept)
}

// finishBatch closes the epoch's accounting once the batch — including
// its fallback chain — fully settled, then snapshots or releases the
// commit slot.
func (c *Coordinator) finishBatch(ctx *sim.Context, st *epochState) {
	c.EpochsClosed++
	switch {
	case st.binding || len(c.replaying) > 0 || c.fenceSeq != 0:
		// No snapshot while a binding replay is in flight: the images would
		// capture some binding effects but not the queued remainder, and the
		// release-time classification (entry.at vs the snapshot's cut)
		// cannot describe such a half-replayed state. Deferring to the next
		// normal epoch keeps "released at or before the cut" equivalent to
		// "effects inside the images".
		// Likewise no snapshot while fenced for a global batch: a snapshot
		// offset must never land between a fence marker and its unfence, or
		// the restart scan could miss the unbalanced marker — and the images
		// would capture a half-applied global batch.
		if st.binding && len(c.replaying) == 0 && (c.exec == nil || !c.exec.binding) {
			c.replayDrained(ctx, st)
		}
	case c.sys.cfg.SnapshotEvery > 0 && c.EpochsClosed%c.sys.cfg.SnapshotEvery == 0:
		// The chain's last level, if any, rides the checkpoint that seals
		// the snapshot instead of a sync of its own.
		c.startSnapshot(ctx, st)
		return
	}
	c.journal.sync(ctx) // the chain's last level (a batch synced at its decide)
	c.releaseCommit(ctx)
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

// releaseCommit frees the commit slot — the slot's last use: it becomes the
// spare the next openEpoch reuses. Serial schedule: the next epoch
// opens now. Pipelined: the next epoch is already open in the exec slot —
// if its batch closed while the slot was busy, it promotes immediately
// (the backpressure case); if it is still open with every member finished,
// it closes and promotes now (selfClose); otherwise it keeps executing and
// promotes on its own completion.
func (c *Coordinator) releaseCommit(ctx *sim.Context) {
	c.spare, c.commit = c.commit, nil
	switch st := c.exec; {
	case st == nil:
		c.openEpoch(ctx)
	case st.phase == phaseOpen:
		c.selfClose(ctx, st)
	default:
		c.maybeDecide(ctx, st)
	}
}

// respond releases one request's terminal response: it is staged in the
// journal and sent once the group-commit sync covering it completes, so a
// response a client could have seen is always in the recoverable prefix.
func (c *Coordinator) respond(ctx *sim.Context, t *txnState, resp sysapi.Response) {
	if t.apply != nil {
		// A global batch's apply: before the apply's own ack, stage the
		// responses of the batch transactions this shard is home to
		// (write-ahead order — a durable apply ack must imply durable
		// embedded responses: the sequencer unfences on the acks, and the
		// next fence's admission verdict must already find them).
		c.stageEmbeddedResponses(ctx, t.apply.man, t.pos)
	}
	if t.replyTo == "" {
		return
	}
	c.journal.stage(ctx, t.replyTo, deliveredEntry{resp: resp, at: ctx.Now(), pos: t.pos})
}

// stageEmbeddedResponses releases the responses of the global batch
// transactions homed on this shard, as the manifest of the apply at
// source-log position pos lists them: staged for the client, they ride the
// apply's own group-commit sync and cost one delivered-record each. This is
// the one release a global response ever gets — the sequencer sends none —
// and it is safe ahead of the other shards' applies: this apply is logged,
// so the batch will be rolled forward whatever crashes, and every other
// footprint shard stays parked until its own apply is durable, so nobody
// can observe the batch half-installed. The records also make this shard
// the transaction's exactly-once witness: a retry of the id is judged
// against them under the next fence (ackFence) and re-served by admit.
func (c *Coordinator) stageEmbeddedResponses(ctx *sim.Context, man *batchManifest, pos int64) {
	for _, mt := range man.txns {
		if mt.home != c.sys.shardIndex {
			continue
		}
		c.journal.stage(ctx, mt.replyTo, deliveredEntry{resp: mt.res, at: ctx.Now(), pos: pos})
	}
}

// onLogSynced releases the responses a completed group-commit sync covers.
// Deliberately not epoch- or phase-guarded — released state is from
// durably committed batches, valid across concurrent recoveries.
func (c *Coordinator) onLogSynced(ctx *sim.Context, m msgLogSynced) {
	c.journal.synced(ctx, m)
	if c.fencePending.Seq != 0 {
		// Draining the staged queue may have been the last quiesce
		// condition a pending fence was waiting on.
		c.maybeFence(ctx)
	}
}

// startSnapshot persists an aligned snapshot: the committing epoch's
// boundary is the alignment point, so the images plus the source offsets
// form a consistent cut (§3). The offset is the epoch's own consumedEnd —
// the pipelined successor has already drawn the cursor past the cut, and
// its members (plus conflict-aborted requests awaiting retry) were
// consumed but have no effects in the images: the ones before the offset
// are recorded as pending positions, the rest replay with the suffix.
func (c *Coordinator) startSnapshot(ctx *sim.Context, st *epochState) {
	c.enterPhase(ctx, st, phaseSnapshot)
	// The images the workers are about to write contain the staged
	// transactions' effects while their delivered-records are still
	// volatile — but that needs no WAL force here: a snapshot is
	// restorable only once *sealed*, and the seal travels inside the
	// checkpoint written when the images complete, whose own sync covers
	// the staged records first. A crash before the seal lands discards
	// the snapshot along with the torn records, keeping the two
	// consistent; the staged responses release at the checkpoint instead
	// of paying a dedicated fsync ahead of the cut.
	offsets := map[string][]int64{sourceTopic: {st.consumedEnd}}
	var pendingPos []int64
	for _, p := range c.pending {
		pendingPos = append(pendingPos, p.pos)
	}
	if c.exec != nil {
		for _, t := range c.exec.txns { // TID order
			if t.pos < st.consumedEnd {
				pendingPos = append(pendingPos, t.pos)
			}
		}
	}
	c.snapshotID = c.sys.Snapshots.BeginWithPending(st.epoch, offsets,
		map[string][]int64{sourceTopic: pendingPos}, len(c.sys.workerIDs))
	// Retiring the oldest restore point now rather than after this
	// snapshot's seal lets the workers encode into the images that retire:
	// Compact keeps them for the snapshot that awaits them. Only when the
	// newest complete snapshot is the sealed one, which the retirement
	// keeps: a snapshot completed by a coordinator that crashed before
	// sealing it would otherwise outrank the restore point.
	if retain := c.sys.cfg.SnapshotRetain; retain >= 2 {
		if latest, ok := c.sys.Snapshots.Latest(); ok && latest.ID == c.sealed {
			c.sys.Snapshots.Compact(retain - 1)
		}
	}
	c.tap.snapshot(c.snapshotID)
	// The cut's virtual time: this epoch's last response was staged in
	// this same event (finishBatch runs inside the final apply), so every
	// entry released at or before now has its effects in the images the
	// workers are about to write — and every later release does not.
	c.snapCut = ctx.Now()
	clear(c.snapDone)
	c.broadcast(ctx, msgTakeSnapshot{ID: c.snapshotID, Epoch: st.epoch})
}

func (c *Coordinator) onSnapshotDone(ctx *sim.Context, from string, m msgSnapshotDone) {
	st := c.commit
	if st == nil || st.phase != phaseSnapshot || m.ID != c.snapshotID {
		return
	}
	if _, done := c.ack(ctx, &c.snapDone, from); !done {
		return
	}
	c.writeCheckpoint(ctx)
	c.releaseCommit(ctx)
}

// writeCheckpoint seals the just-completed snapshot: the journal folds
// itself and the coordinator's marks into a log checkpoint (pruning dedup
// state below the snapshot's source offset and releasing the snapshot
// epoch's staged responses). With SnapshotRetain 1 the older snapshots
// retire now; a larger budget retires them when the next one begins.
func (c *Coordinator) writeCheckpoint(ctx *sim.Context) {
	offset := int64(0)
	if meta, ok := c.sys.Snapshots.Get(c.snapshotID); ok {
		offset = meta.SourceOffsets[sourceTopic][0]
	}
	c.sealed, c.sealedCut = c.snapshotID, c.snapCut
	c.journal.checkpoint(ctx, marks{epoch: c.epoch, nextTID: c.nextTID,
		sealed: c.sealed, sealedCut: c.sealedCut, fenceDone: c.fenceDone}, offset)
	if c.sys.cfg.SnapshotRetain == 1 {
		c.sys.Snapshots.Compact(1)
	}
}

// openEpoch advances the epoch (durably — blocking on the serial
// schedule, riding the commit epoch's group commit on the pipelined one),
// installs an exec slot (the reset spare, when there is one), drains
// buffered retries and arrivals up to the batch cap, and arms the epoch
// timer.
func (c *Coordinator) openEpoch(ctx *sim.Context) {
	c.epoch++
	c.journal.advance(ctx, c.epoch, c.sys.cfg.DisablePipelining)
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "epoch.advance",
			"epoch %d (%d binding queued)", c.epoch, len(c.replaying))
	}
	if tr := c.tracer(); tr.Enabled() {
		tr.Instant(c.sys.coordID, "epoch", "epoch.advance", ctx.Now(),
			"epoch", strconv.FormatInt(c.epoch, 10))
	}
	st := c.spare
	if st == nil {
		st = &epochState{}
	}
	c.spare = nil
	st.reset(c.epoch)
	c.exec = st
	// The binding replay queue preempts everything: released responses
	// constrain what the rebuilt state must look like, so their
	// transactions re-commit — in release order — before any pending
	// retry or fresh arrival is allowed to interleave.
	if len(c.replaying) > 0 {
		c.openBinding(ctx, st)
		return
	}
	// While fenced for a global batch the epoch parks: no timer, no
	// source drain — it accepts only the sequencer's write-set apply, so
	// the shard's committed state stays exactly what the sequencer read.
	// A queued apply (the previous fenced epoch was busy when it arrived,
	// or the recovery scan found it unanswered in the log suffix) runs
	// now that the binding replay has drained.
	if c.fenceSeq != 0 {
		if c.fenceApply != nil {
			p := *c.fenceApply
			c.fenceApply = nil
			c.startApply(ctx, p)
		}
		return
	}
	c.fillEpoch(ctx, st)
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

// fillEpoch populates a freshly opened (non-binding, unfenced) epoch:
// pending retries, then the source-log backlog, then the close timer.
// Also the resume step when an unfence releases a parked epoch.
func (c *Coordinator) fillEpoch(ctx *sim.Context, st *epochState) {
	// Retries first (deterministic: they carry the smallest TIDs of the
	// new batch, so starved transactions eventually win every conflict);
	// past the cap they stay pending, ahead of the source backlog.
	c.drainPending(ctx, st)
	c.drainSource(ctx)
	c.armTick(ctx, st)
}

// drainSource is the one way a logged client request enters a batch: it
// assigns source-log records from the cursor on into the open exec batch,
// in log order, while the intake gate is open — no recovery, no fence
// parked or pending, an open non-binding exec slot, and the batch under the
// cap. It runs wherever the gate can open: after an arrival is logged, when
// an epoch opens or an unfence resumes one (fillEpoch), on an idle tick, and
// when a rebooted sequencer's query drops a pending fence. The cap chunks
// the draw, so a post-recovery backlog replays over as many batches as it
// needs instead of ballooning one giant batch. A quiescing shard (fence
// pending) draws nothing, so sustained load cannot starve the fence; the
// backlog drains after the unfence or once the fence is dropped.
func (c *Coordinator) drainSource(ctx *sim.Context) {
	st := c.exec
	if c.recovering || c.fenceSeq != 0 || c.fencePending.Seq != 0 ||
		st == nil || st.phase != phaseOpen || st.binding {
		return
	}
	end, err := c.sys.RequestLog.End(sourceTopic, 0)
	if err != nil {
		return
	}
	for ; c.consumed < end && !c.batchFull(st); c.consumed++ {
		rec, ok := c.readSource(c.consumed)
		if !ok {
			break
		}
		if !rec.isClientRequest() {
			// Fence markers and global applies never enter the batch
			// intake: markers are recovery metadata, and an apply below
			// the cursor was answered inside its fence window (or
			// replayed as binding).
			continue
		}
		if c.journal.answered(rec.txn.req.Req) {
			// A recovery rewound the cursor over this record, but its
			// response is already delivered (or staged): its effects are
			// either in the restored images or rebuilt by the binding
			// replay, and re-assigning it would double-execute.
			continue
		}
		c.assign(ctx, st, rec.txn)
	}
}

// drainPending assigns buffered retries into the slot's batch up to the
// cap; the rest stay pending, ahead of the source backlog.
func (c *Coordinator) drainPending(ctx *sim.Context, st *epochState) {
	pend := c.pending
	c.pending = nil
	for i, p := range pend {
		if c.batchFull(st) {
			c.pending = append(c.pending, pend[i:]...)
			break
		}
		c.assign(ctx, st, p)
	}
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

// recoverRetryEvery is how often a recovery in progress re-sends its recover
// message to the workers that have not acknowledged it: a few epoch
// intervals — long enough that a live worker's restore and ack normally
// beat it, short enough that a worker coming out of a hold-down is rolled
// back at once instead of a stall timeout later.
func (c *Coordinator) recoverRetryEvery() time.Duration { return 4 * c.sys.cfg.EpochInterval }

// retryRecover re-sends the recovery in progress to the workers still
// missing from c.recovered — one the fault schedule held down when Recover
// ran (respawn refused, message dropped), a lost recover message or a lost
// ack. It is a re-send, not a recovery: same snapshot id and epoch, no
// journal advance, no rebuilt queues. A worker that already restored answers
// the duplicate with a bare re-ack (onRecover), so it is idempotent.
func (c *Coordinator) retryRecover(ctx *sim.Context) {
	c.RecoverRetries++
	var missing []string
	for _, w := range c.sys.workerIDs {
		if !c.recovered[w] {
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

// restorePoint returns the snapshot recovery (and snapshot-consistency
// queries) may use: exactly the latest sealed snapshot — never a merely
// image-complete one, whose effects may depend on delivered-records a
// crash could still tear.
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
	clear(c.recovered)
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

// rebuildSeen reconstructs the journal's logged arrivals from durable
// ground truth: every answered response (the journal's own), every pending
// retry the snapshot recorded, and every id in the source-log suffix the
// replay will re-consume.
func (c *Coordinator) rebuildSeen() {
	c.journal.resetSeen()
	for _, p := range c.pending {
		c.journal.logged(p.req.Req)
	}
	if end, err := c.sys.RequestLog.End(sourceTopic, 0); err == nil {
		for pos := c.consumed; pos < end; pos++ {
			rec, ok := c.readSource(pos)
			if !ok {
				break
			}
			if rec.marker == nil {
				c.journal.logged(rec.txn.req.Req)
			}
		}
	}
}

// OnRestart implements sim.RestartHandler: the coordinator machine came
// back from a crash with its memory gone. Restore the journal — the epoch
// high-water mark and the delivered responses, exactly what exactly-once
// needs — then run the ordinary rollback recovery for everything else.
func (c *Coordinator) OnRestart(ctx *sim.Context) {
	c.Restarts++
	if c.exec != nil && c.commit != nil {
		// Pre-crash in-memory state is observable to the test harness even
		// though the protocol discards it: record that this reboot landed
		// inside the two-epochs-in-flight window.
		c.MidPipelineRestarts++
	}
	c.exec, c.commit = nil, nil
	c.recovering = false
	c.pending, c.replaying = nil, nil
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
	c.epoch = img.epoch
	c.nextTID = img.nextTID
	c.sealed, c.sealedCut = img.sealed, img.sealedCut
	c.fenceDone = img.fenceDone
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
	if _, done := c.ack(ctx, &c.recovered, from); !done {
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

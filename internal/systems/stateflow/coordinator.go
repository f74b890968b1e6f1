// The StateFlow coordinator: combines the ingress router (request intake,
// replayable source, TID assignment), the Aria batch sequencer (epoch
// close, validation over the shipped reservation sets, decide), the
// snapshot trigger, the failure detector and the egress router
// (deduplicated client responses with durable response-replay). The
// paper's deployment dedicates a single core to it ("StateFlow requires a
// single core coordinator", §4).
//
// Five files hold it. This one owns the component — its fields, message
// dispatch and wiring — and everything around a batch: request intake, the
// two-slot pipeline (opening, filling and releasing epochs), snapshots and
// checkpoints. epoch.go owns what happens to a batch between its first
// assignment and its last settle — epochState, the transaction record and
// the round loop. recovery.go owns the failure handling: the failure
// detector, the rollback to the sealed snapshot and the binding replay.
// journal.go owns the exactly-once border (below). fence.go adds the
// shard's part in the sequencer's global batches.
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
// recovery (recovery.go).
package stateflow

import (
	"strconv"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
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

	// marks are the facts the journal keeps durable for the coordinator
	// (journal.go): the epoch and TID high-water marks, the sealed snapshot
	// and its cut, and the newest global batch unfenced for.
	marks

	// The pipeline stage table. exec is the epoch accepting and executing
	// its batch; commit is the epoch in apply/fallback/snapshot.
	// Serial schedule: at most one is non-nil at a time (exec moves into
	// commit and a new exec opens only when commit settles). Pipelined
	// schedule: both run concurrently. recovering parks both slots while a
	// rollback is in flight. spare is the slot releaseCommit freed last: the
	// next openEpoch resets and reuses it, so an epoch allocates no slot. A
	// slot Recover discards is dropped instead — nothing routes to a slot
	// by pointer, only by epoch (stageFor).
	exec   *epochState
	commit *epochState
	spare  *epochState

	// Pending requests not yet assigned (arrivals during commit phases and
	// retries of aborted transactions).
	pending []pendingReq

	// validator checks every batch for conflicts (epochState.validate),
	// emptied for each one, so validation allocates nothing per epoch.
	validator aria.Validator

	// snapCut is the aligned-cut virtual time of the snapshot in flight
	// (when its epoch staged its last response); sealing it makes it
	// sealedCut.
	snapCut time.Duration

	// Replayable source position: how many log records have been drawn
	// into batches.
	consumed int64

	// acks collects the workers' answers to the one wait on every worker in
	// flight: the commit slot's apply or snapshot, or a recovery's restore.
	// No two of them are ever in flight together — apply and snapshot take
	// turns in the commit slot, the exec slot never applies, and Recover
	// empties both slots — so decide, startSnapshot and Recover each start
	// it over, and each answer's handler checks its phase, snapshot id or
	// epoch before it counts (see ack).
	acks ackSet
	// snapshotID is the snapshot in flight, or the last one taken or
	// restored.
	snapshotID int64

	// journal is the exactly-once border: ingress dedup, staged and
	// delivered responses, and the durable log they and the epoch advances
	// are written to (journal.go).
	journal journal

	// recovery is the state only failure handling writes (recovery.go).
	recovery
	CoordinatorStats

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
	// ids start at 1); the batch's closing marker raises marks.fenceDone.
	// fenceApply holds an unanswered apply record the recovery scan found
	// in the log suffix; it executes once the binding replay drains.
	fencePending msgFence
	fenceSeq     int64
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
		recovery: recovery{replayAt: -1},
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
	c.sys.RequestLog.Append(msg)
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

// releaseCommit frees the commit slot — the slot's last use: it becomes the
// spare the next openEpoch reuses. Serial schedule: the next epoch
// opens now. Pipelined: the next epoch is already open in the exec slot —
// if its batch closed while the slot was busy, it promotes immediately
// (the backpressure case); if it is still open with every member finished,
// it closes and promotes now (selfClose); otherwise it keeps executing and
// promotes on its own completion. A parked epoch promotes without opening
// a successor (openPipelined), so the spare the previous release left can
// still be waiting: the next epoch then opens in the released slot and the
// waiting one stays the spare, never a third slot.
func (c *Coordinator) releaseCommit(ctx *sim.Context) {
	waiting := c.spare
	c.spare, c.commit = c.commit, nil
	switch st := c.exec; {
	case st == nil:
		c.openEpoch(ctx)
		if c.spare == nil {
			c.spare = waiting
		}
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
	clear(c.acks)
	c.broadcast(ctx, msgTakeSnapshot{ID: c.snapshotID, Epoch: st.epoch})
}

func (c *Coordinator) onSnapshotDone(ctx *sim.Context, from string, m msgSnapshotDone) {
	st := c.commit
	if st == nil || st.phase != phaseSnapshot || m.ID != c.snapshotID {
		return
	}
	if !c.ack(ctx, from) {
		return
	}
	c.writeCheckpoint(ctx)
	c.releaseCommit(ctx)
}

// writeCheckpoint seals the just-completed snapshot: the journal folds
// itself and the coordinator's marks into a log checkpoint (pruning dedup
// state below the snapshot's source offset and releasing the snapshot
// epoch's staged responses) and retires the complete snapshots beyond
// SnapshotRetain. A budget of 2 or more has mostly retired them at the
// begin (startSnapshot) already, where a worker can reuse their images.
func (c *Coordinator) writeCheckpoint(ctx *sim.Context) {
	offset := int64(0)
	if meta, ok := c.sys.Snapshots.Get(c.snapshotID); ok {
		offset = meta.SourceOffsets[sourceTopic][0]
	}
	c.sealed, c.sealedCut = c.snapshotID, c.snapCut
	c.journal.checkpoint(ctx, c.marks, offset)
	c.sys.Snapshots.Compact(c.sys.cfg.SnapshotRetain)
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
	for end := c.sys.RequestLog.End(); c.consumed < end && !c.batchFull(st); c.consumed++ {
		rec, _ := c.readSource(c.consumed)
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

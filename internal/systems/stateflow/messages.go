// Internal wire messages of the StateFlow runtime.
package stateflow

import (
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// msgTxnEvent carries one dataflow event of a transaction between workers
// (function-to-function communication over internal dataflow cycles, §3).
// Round 1 marks the chain's re-execution of a conflict-aborted transaction;
// workers and coordinator drop events from the finished batch round of the
// same epoch, so a delayed duplicate can never leak a stale execution into
// the chain. A round-0 event carries Sets, the reservation sets of every
// worker its call chain ran on so far. Round readRound marks a fast read
// (read.go) instead: TID is the coordinator's read number, and Epoch is its
// stamp — the newest decided epoch plus one, so the read waits at the gate an
// event of that epoch waits at (or, once the worker parked the read behind a
// half-installed epoch, that epoch's successor).
//
// The message is one pointer to its body, which an interface holds as it
// is, so boxing it allocates nothing. A round of a call chain is one body:
// the coordinator dispatches it, and every worker the chain reaches steps the
// event in it and forwards the event it produces in the same body, written
// into the body's own storage (ev), so no hop allocates. A transaction's body
// also holds the chain's execution context (txnBody), which the first step
// builds there (core.Executor.StepIn), so the chain allocates none either; a
// fast read's body holds none, its call being simple. A member's first
// dispatch and a read's first forward allocate nothing at all, their body
// being part of the coordinator's record of them (txnState, fastRead); a
// chain round allocates its one body per dispatch. A record is reused only
// once its request was answered, so a context outlives its chain by
// construction. That rests on one invariant: a msgTxnEvent is never
// duplicated (the failure contract's DupSafe excludes it) and its call chain
// has one event in flight, so the receiver owns the body, its event and its
// context, and steps the event once (see core.Context).
//
// A body carries one (epoch, round, TID) for as long as its record serves
// that request — forwarding changes its event and Sets, never its stamp. The
// coordinator's inline bodies serve only the first dispatch, and every later
// one — a chain round, a read forwarded again after a recovery — allocates
// its own. So the worker that owns a body may forward it or turn it into the
// answer (msgTxnFinished) without anybody else reading what it changed.
//
// The records outlive their requests: a member's record is reused by a later
// epoch of its slot once the slot is released (epochState.reset), a read's
// once its answer is staged (onReadDone), and a worker's txnWork, which
// finishes' Sets point into, once the decide ending its round applies there
// (Worker.pool). A worker holds bodies in storage it reuses too — the
// events its chain parked, in the chain its epoch entry keeps for later
// epochs, and the lists of buffered next-epoch events — and empties both
// when it is done with them (Worker.retire, releaseBuffered), so neither
// keeps a body past its epoch.
// A copy of a finish (msgTxnFinished is DupSafe) can arrive after its body
// was reused, and then reads the new occupant's stamp. Two rules make that
// safe:
//
//  1. onFinished drops a body that is not an answer (Ev != nil): the
//     occupant has not answered — its body is in flight as a dispatch or a
//     forward, or held at a worker — so the copy is not its answer. A body that
//     is an answer is the occupant's own final one, and a copy of it arriving
//     first is the same as a faster link. Its Sets are the occupant's, live
//     until the occupant's round is decided. (A generation carried by value
//     would make the message two words, whose boxing allocates per finish.)
//  2. Nothing recovery touched is reused: the slots Recover discards go with
//     their members, the epochs onRecover wipes with their txnWorks, and a
//     read holdUnanswered took back is answered in a later forward's body,
//     so it never returns to the free list. Their bodies may still be in
//     flight, forwarded or buffered, their chains' contexts inside, and such
//     an event can slip through and execute (see Worker.liveEpoch): in a
//     reused body it would run the occupant a second time, or step on the
//     context the occupant's chain is built in.
type msgTxnEvent struct{ *txnEvent }

// txnEvent is the body of a msgTxnEvent, and of the msgTxnFinished it turns
// into: Value and Err are the root response's, set when the body becomes an
// answer (Ev is then nil).
type txnEvent struct {
	TID   aria.TID
	Epoch int64
	Round int
	// Ev is the event to step, the body's own ev; nil once the body is an
	// answer.
	Ev    *core.Event
	Sets  *rwSets
	Value interp.Value
	Err   string
	// ev is the body's storage for the event it carries, and ctx where its
	// call chain's execution context is built: the chain's storage in a
	// transaction's body (txnBody), nil in a fast read's. Every event of the
	// chain after the first points at ctx.
	ev  core.Event
	ctx *core.Context
}

// txnBody is a transaction's body: the message's body and the storage its
// call chain's context is built in. It is never copied: ctx points into it.
type txnBody struct {
	txnEvent
	chain core.Context
}

// forward makes the body carry next — the root invocation on dispatch, then
// the event each step produces — with the reservation sets the round has
// shipped so far.
func (b *txnEvent) forward(next core.Event, sets *rwSets) {
	b.ev, b.Ev, b.Sets = next, &b.ev, sets
}

// answer turns the body into the msgTxnFinished of its root response resp:
// it drops the event and takes the response's value or error and the
// reservation sets the round shipped.
func (b *txnEvent) answer(resp core.Event, sets *rwSets) {
	b.Ev, b.Sets, b.Value, b.Err = nil, sets, resp.Value, resp.Err
}

// readRound is the Round of a fast read's event and of its answer.
const readRound = -1

// msgTxnFinished tells the coordinator a transaction's call chain reached
// its root response. Round echoes the execution round of the events that
// produced it (0: the batch's optimistic first execution, whose finish
// carries the reservation sets the coordinator validates the batch over). A
// fast read's answer has Round readRound, and Epoch is then the worker's
// applied epoch: the cut the read saw.
//
// It travels back in the body of the event that produced the response (see
// msgTxnEvent), so answering allocates nothing. It is duplicate-safe: a body
// does not change once it is an answer until a later request reuses its
// record, and a duplicate finds its member finished, its round over or its
// read answered and is dropped — or, its body reused, finds the new
// occupant's event, dropped too, or the occupant's own answer.
type msgTxnFinished struct{ *txnEvent }

// rwSets is what a round-0 call chain reserved: one reservation set per
// worker it ran on, newest first. A worker adds its own set the first time
// the chain leaves it (Worker.shipSets), so the root's finish brings the
// whole footprint to the coordinator (epochState.validate). A call chain has
// one event in flight, so every set is final once the root response is
// produced; nodes are never modified after they are sent. A node lives in the
// worker's record of the transaction (txnWork), which ships it at most once:
// a call chain that leaves the worker again already carries it. The record
// is reused once the decide ending its round applies on the worker, after
// the coordinator's last read of the sets (the batch decide).
type rwSets struct {
	rw   *aria.RWSet
	next *rwSets
}

// msgEpochTick is the open batch's timer: the upper bound on how long a batch
// waits to close, and the idle retick. The batch itself usually closes first,
// as soon as every member has finished and the commit slot is free (see
// Coordinator.selfClose). It carries nothing, so arming it allocates nothing:
// the exec slot keeps its deadline (epochState.closeAt), and a tick that fires
// before it — armed for a batch that closed early — is ignored.
type msgEpochTick struct{}

// msgDecide broadcasts the deterministic global decision for the batch
// (Round 0) or closes the chain (Round 1). The round guard matters for the
// apply: a delayed duplicate of the batch's decide must not wipe the
// workspaces of the chain in flight. Final marks the epoch's last decide:
// applying it settles the epoch on the worker, which advances its applied
// high-water mark and releases any buffered next-epoch events the pipelined
// coordinator dispatched during the commit phase. Aborts is in TID order,
// like Order. Chain, on a batch decide that is not final, is the schedule
// the epoch's conflict aborts re-execute by — one more round, gated on the
// workers by the plan's per-entity queues (see aria.ChainPlan).
//
// The plan, the chain decide's Order (the plan's members) and every
// decide's Aborts live in the epoch's coordinator slot, shared by every
// receiver and immutable while the epoch is live; the slot replans and
// rewrites them for a later epoch once it is released. That is safe
// because the release (releaseCommit) runs only after every worker acked
// the epoch's final decide: each has then retired its epoch entry, dropping
// its pointer to the plan, and drops any later copy of this decide by its
// Epoch (Worker.reached) before it reads Chain, Order or Aborts. The ack
// (msgApplied) and the chain's releases read no plan, and the slots and
// worker epochs a recovery touched are discarded, never reused.
// Apply is the global batch slice the batch's last member commits (nil for
// a batch without one, or whose apply a binding cut dropped): it executed
// nothing, so each worker installs the rows of it that it owns after every
// lower TID's workspace. A decide travels by pointer: the coordinator boxes it
// once for every receiver, nobody modifies it, and each worker's ack carries
// it back (msgApplied).
type msgDecide struct {
	Epoch  int64
	Round  int
	Order  []aria.TID
	Aborts []aria.TID
	Final  bool
	Chain  *aria.ChainPlan
	Apply  *globalApply
	// order holds a batch decide's Order when it is this short, as most
	// are (1.8 transactions an epoch on a contended mix).
	order [inlineOrder]aria.TID
}

// inlineOrder is the most TIDs that keep a decide in the 112-byte size
// class. That is 16 bytes above the class it takes without them, which is
// what a separate Order of two TIDs cost, and less than one of three.
const inlineOrder = 3

// msgChainRelease tells a worker that a chain member it owns part of the
// footprint of is done on another worker: install its workspace (Commit) or
// drop it (application error, drift), take it out of the entity queues and
// run what was parked behind it. Sent once per member to each other owner by
// the worker that produced the member's root response — or that refused it
// an event on an entity it is not queued on. That worker also sends one to
// the coordinator, where it is the drift report: the member left the chain
// with nothing installed and retries in the next batch.
type msgChainRelease struct {
	Epoch  int64
	TID    aria.TID
	Commit bool
}

// msgApplied acknowledges that a worker installed the batch's writes (or
// closed the chain). The round's responses left at its decide; the acks only
// gate the chain's dispatch, the snapshot and the commit slot's release. It
// echoes the decide it acknowledges, whose Epoch and Round it answers: a
// struct of one pointer is stored in an interface as it is, so sending the ack
// allocates nothing.
type msgApplied struct{ *msgDecide }

// msgTakeSnapshot asks workers to persist their committed stores. Epoch
// is the coordination epoch the snapshot aligns with: a delayed copy
// re-arriving after the system moved on is stale and must not write
// post-recovery state into an old cut.
type msgTakeSnapshot struct {
	ID    int64
	Epoch int64
}

// msgSnapshotDone acknowledges one worker's snapshot write.
type msgSnapshotDone struct{ ID int64 }

// msgStallCheck is the failure detector's watchdog (see onStallCheck): one
// self-rearming timer per coordinator, armed when a slot enters a phase that
// waits on every worker (execution, apply, snapshot) and none is armed yet.
// It fires at the detector's deadline — one stall timeout after the later of
// the oldest waiting phase's start and the last counted worker answer — and
// re-arms for the new deadline while the workers keep answering, so a batch
// that is merely slow (e.g. a post-recovery replay of the whole backlog) is
// never mistaken for a dead worker. It carries nothing, so arming it
// allocates nothing: the coordinator keeps the deadline it was armed for.
type msgStallCheck struct{}

// msgRecoverRetry is the recovery in progress's retry tick (see
// retryRecover); Epoch is the recovery's view, so a tick from an earlier
// recovery is dropped.
type msgRecoverRetry struct{ Epoch int64 }

// msgRecover tells a worker to reload its committed store from a snapshot
// (id 0 means "reset to empty"). Recovery bumps the coordination epoch
// before sending these — like a view change — so every message of the
// discarded world is provably stale to any worker that has recovered.
type msgRecover struct {
	SnapshotID int64
	Epoch      int64
}

// msgRecovered acknowledges recovery. Epoch echoes the recover message's
// view number: two recovery rounds can restore the same snapshot id, and
// a delayed ack from the earlier round must not satisfy the later one
// (the worker it names has not rolled back in that round).
type msgRecovered struct {
	SnapshotID int64
	Epoch      int64
}

// ---------------------------------------------------------------------------
// Sharded global-commit protocol (sequencer <-> shard coordinator).
//
// Cross-shard transactions run at the global sequencer against a fenced,
// quiescent view of the involved shards, then commit back into each shard
// as the last member of one ordinary epoch. Both directions ride messages
// the protocol exchanges anyway: the rows the sequencer reads come back on
// the fence ack, and the rows it writes go out on the shard's batch decide.
// The fence is durable on the shard side (an open fenceMarker in the
// source log precedes the ack), so a shard that crashes mid-batch comes
// back still fenced and cannot interleave fresh transactions between the
// sequencer's reads and its writes.

// msgFence asks a shard coordinator to quiesce: finish every in-flight
// epoch, drain its staged responses to durability, park with an open
// empty epoch, append a durable fence marker, and ack. Seq is the global
// batch id; stale copies (Seq <= the shard's completed high-water mark)
// are re-acked idempotently. Admit lists the ids of the batch transactions
// homed on this shard: the shard is their exactly-once witness, and judges
// each against its journal once it is parked (see msgFenceAck). Reads lists
// the entities this shard owns that the batch reads: the members' static
// refs, plus whatever an execution reached beyond them — the sequencer
// re-sends the fence with the longer list, which also fences a shard the
// execution dragged into the footprint.
type msgFence struct {
	Seq   int64
	Admit []string
	Reads []interp.EntityRef
}

// msgFenceAck confirms one shard is parked for global batch Seq. An ack
// that answers a fence echoes its Admit list and says, position by
// position, which of those transactions the shard already answered (Known:
// in its journal, or at or below the source's dedup floor); Rows answers
// its Reads with the committed rows themselves, read-only (entityImage).
// Both are taken parked with nothing in flight, so they hold for the whole
// fence window: the sequencer drops the known members and executes the rest
// against the rows. The park watchdog's re-ack carries none of the lists
// and is never an answer.
type msgFenceAck struct {
	Seq   int64
	Admit []string
	Known []bool
	Rows  []entityImage
}

// msgUnfence releases a parked shard after the global batch's writes are
// durable everywhere. The shard appends the balancing closed fenceMarker,
// resumes normal epochs and acks.
type msgUnfence struct{ Seq int64 }

// msgUnfenceAck confirms the shard resumed after batch Seq.
type msgUnfenceAck struct{ Seq int64 }

// msgGlobalApply delivers one shard's slice of a global batch. The shard
// logs the apply, commits it as the only member of its parked epoch — the
// epoch's decide installs the rows — and acks with the apply id's
// sysapi.MsgResponse once the commit is durable; copies outside
// the batch's fence window are dropped, re-sends dedupe by the apply id.
// Ballot is the sending sequencer incarnation's: a shard drops an apply
// whose ballot is below the one it promised a later incarnation
// (msgSeqFenceQuery).
type msgGlobalApply struct {
	Apply  *globalApply
	Ballot int64
}

// ---------------------------------------------------------------------------
// Sequencer failover (failover.go). The sequencer keeps no durable
// state; on reboot it reconstructs the in-flight global batch from the
// shards' durable fence markers and the batch manifest every logged
// globalApply points at.

// msgSeqFenceQuery asks a shard coordinator for its fence state after a
// sequencer reboot. Answered whenever the shard is not itself mid-
// recovery. Ballot is the asking incarnation's (its reboot instant; the
// first incarnation's is 0): the report promises it, and a parked shard
// makes the promise durable before it reports.
type msgSeqFenceQuery struct{ Ballot int64 }

// msgSeqFenceReport is one shard's answer: the batch it is parked for right
// now (FenceSeq, 0 if none), its completed fence high-water mark, and —
// if its durable log holds the fenced batch's apply — that apply (nil
// otherwise), whose manifest lets the sequencer re-derive the whole batch.
type msgSeqFenceReport struct {
	Shard    int
	FenceSeq int64
	// FenceDone is the highest batch the shard completed an unfence for.
	FenceDone int64
	Apply     *globalApply
}

// msgFenceParkTick is the shard-side park watchdog: while the shard
// stays fenced it periodically re-acks the fence to the sequencer. A park
// can outlive the batch it was for — a fence from a dead sequencer
// incarnation parks a shard *after* the recovery handshake reported it
// unfenced (it was in flight across the crash), or the one unfence of an
// abandoned batch is lost with the coordinator that was to receive it and
// the restart scan rebuilds the park from its marker. The re-ack is what
// surfaces such an orphan, and the sequencer answers with the releasing
// unfence. It carries nothing: the coordinator keeps the deadline of the
// last one it armed (parkAt), and a tick that fires before it — armed for
// an earlier park, or by an incarnation since crashed — is dropped.
type msgFenceParkTick struct{}

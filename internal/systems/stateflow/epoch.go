// The coordinator's epoch machine: one batch of transactions from its
// first assignment through Aria's execute → validate → fallback → apply.
// Round 0 is the batch's own execution (Lu et al., VLDB 2020). Its finishes
// carry the reservation sets of every worker each call chain ran on, so the
// coordinator validates the batch itself and decides in the same event —
// Aria's check is per key, so one check over the union of the sets is the
// OR of per-worker votes — and the batch's responses leave at that decide:
// a decided batch is final, and a binding replay rebuilds any released
// write whose install a crash loses. The workers' applied acks only gate
// what needs the installed state. Conflict aborts re-execute as round 1,
// one chain with no barrier inside it: every member queues, in TID order,
// on each entity of its footprint and the workers run an event when its
// member heads the target's queue (aria.ChainPlan —
// Calvin's ordered locks, Thomson et al., SIGMOD 2012). A footprint the
// request does not give is the one round 0 observed (Calvin's
// reconnaissance); a re-execution that leaves it retries in the next batch.
//
// This file owns the per-epoch protocol state (epochState and the
// transaction record) and every step that reads or writes it. What can be
// decided from an epochState alone — the fallback schedule, a round's
// decision, a member's outcome — is a method on *epochState and takes no
// sim.Context; the Coordinator methods below wrap
// those steps with what the deployment adds: messages, cost-model CPU,
// counters, responses and the journal. Intake, snapshots and the pipeline's
// slot management live in coordinator.go; recovery, the binding batch's cut
// included, in recovery.go.
package stateflow

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// pendingReq is a request outside a batch: buffered for the next one, queued
// for a binding replay, or just read from the source log.
type pendingReq struct {
	req     sysapi.Request
	replyTo string
	pos     int64 // source-log position of the request
	retries int
	// arrivedAt is when the request entered (or re-entered) the intake
	// queue — the start of its ingress.queue trace span. Zero when the
	// enqueue instant is unknown (e.g. a source-log drain after
	// recovery); assign then clamps the span to zero length. Purely
	// observational.
	arrivedAt time.Duration
	// apply is set when the request is one shard's slice of a global batch
	// (req then carries only the apply's id; see globalApply.pending).
	apply *globalApply
}

// txnState is a request inside a batch: the request as it was taken from
// the intake (a retry copies the embedded value back out) plus what the
// epoch's rounds learn about it. The record belongs to its slot, not to its
// request: once the slot is released, a later epoch's add zeroes it and
// places another request in it (see epochState.reset).
type txnState struct {
	pendingReq
	// first is the body of the first dispatch's message, round 0's, and so
	// of its call chain's events and context (see msgTxnEvent); the chain's
	// dispatch allocates its own.
	first    txnBody
	finished bool
	value    interp.Value
	err      string
	// sets is what the first execution reserved, shipped with its finish:
	// the batch is validated over it, and a conflict abort whose request
	// does not give its footprint queues on it.
	sets *rwSets
	// aborted: the round in flight voided this member's execution — the
	// batch's validation or a binding cut in the batch, a drift report in the
	// chain. Reset when the chain dispatches the member.
	aborted bool
	// rescued: the chain re-executes the member within this epoch, so the
	// batch's decide does not send it to the next-batch retry path.
	rescued bool
}

// epochState is one slot of the coordinator's pipeline stage table: the
// full per-epoch protocol state, from the open batch through validation,
// the fallback chain and apply. The epoch number is the demultiplexing key —
// worker messages carry it, and stageFor routes them to the slot they
// belong to — so two epochs can be in flight without their answers
// contaminating each other. A slot lives from openEpoch to releaseCommit;
// the released slot is the coordinator's spare, which the next openEpoch
// resets and reuses for the epoch it opens, keeping its backing stores and
// its member records. A slot Recover discards is dropped with its records:
// its first dispatches may still be in flight (see msgTxnEvent).
type epochState struct {
	epoch int64
	phase phase
	// phaseAt is when the current phase began (set by enterPhase and at
	// batch close) — the start timestamp of the phase's trace span.
	// Purely observational.
	phaseAt time.Duration
	// closeAt is the open batch's deadline: the epoch timer closes the batch
	// at it if the batch has not closed itself by then (see onTick).
	closeAt time.Duration

	// binding marks a recovery replay epoch whose batch re-executes
	// already-released responses (the binding prefix — see Recover). It
	// is filled from the replay queue and closed in the same event (see
	// openBinding), admits no fresh arrivals, never snapshots, and commits
	// only the conflict-free prefix of its batch: everything from the
	// first aborted member on requeues to the front of the binding queue
	// with no retry budget — a response a client already holds cannot be
	// taken back, so its effects must be rebuilt no matter what.
	binding bool

	// The batch. Only the open exec slot is ever assigned into, so an
	// epoch's TIDs are contiguous: txns[i] is transaction first+i (add
	// enforces it). Past len, txns keeps the records of earlier epochs'
	// members for add to reuse.
	first aria.TID
	txns  []*txnState
	// unfinished counts members of the round in flight whose root response
	// (or, in the chain, drift report) has not arrived yet; it makes the
	// per-finish completion check O(1).
	unfinished int

	// consumedEnd freezes the source cursor at batch close: it is this
	// epoch's aligned cut. The pipelined successor keeps consuming past it
	// while this epoch commits, so the snapshot taken at this epoch's
	// boundary must record this value — not the live cursor — as its
	// replay offset.
	consumedEnd int64

	// round is the round in flight — 0: the batch's first execution, 1: the
	// chain — and order its members in TID order (round 0: the whole batch,
	// set at close; the chain: a copy of its plan's members, so the slot's
	// storage is never the plan's).
	round int
	order []aria.TID

	// plan is the batch's fallback schedule (no members: no conflict abort
	// to re-execute): the aborts run as round 1, gated on the workers by
	// per-entity TID queues instead of a barrier. chain is the coordinator's
	// mirror of those queues: a member is released here when its response is
	// staged, which happens as soon as it has finished and every predecessor
	// on each of its entities has been staged — so the journal's append order
	// stays a serial order without anybody waiting for the end of the chain
	// (a drifted member's turn stages its retry instead). levelLeft counts the
	// members of each depth level not released yet (empty for a chain of
	// depth 1). aborts holds each round's decide's Aborts.
	//
	// All four keep their storage across reset, and the batch decide shares
	// the plan, and each decide its round's aborts, with every worker. That
	// is safe because a slot is reset only after releaseCommit, once every
	// worker acked its final decide: each has retired its epoch and dropped
	// its pointer to the plan, and drops any later copy of either decide by
	// its epoch before it reads the plan or the aborts (Worker.reached).
	// Recover discards its slots, so nothing a recovery touched is replanned.
	plan      aria.ChainPlan
	chain     aria.Chain
	levelLeft []int32
	aborts    [2][]aria.TID
}

// scheduled reports whether the batch scheduled a fallback chain.
func (st *epochState) scheduled() bool { return len(st.plan.Members) > 0 }

// chained reports whether the round in flight is the chain.
func (st *epochState) chained() bool { return st.round > 0 }

// txn returns the batch member with the given TID (nil: not in this batch).
func (st *epochState) txn(tid aria.TID) *txnState {
	if i := int(tid - st.first); i >= 0 && i < len(st.txns) {
		return st.txns[i]
	}
	return nil
}

// add places a request in the batch under a freshly minted TID, in the
// record an earlier epoch of the slot left at that position (zeroed), or a
// new one. A global apply executes nothing — the decide carries its rows —
// so it is finished on arrival, answering with its batch id.
func (st *epochState) add(tid aria.TID, p pendingReq) *txnState {
	n := len(st.txns)
	if n == 0 {
		st.first = tid
	}
	if want := st.first + aria.TID(n); tid != want {
		// The TID-indexed batch rests on this: TIDs are minted one at a
		// time and only the open exec slot takes them.
		panic(fmt.Sprintf("stateflow: epoch %d assigned TID %d, want %d", st.epoch, tid, want))
	}
	var t *txnState
	if n < cap(st.txns) {
		t = st.txns[:n+1][n]
	}
	if t == nil {
		t = new(txnState)
	}
	*t = txnState{pendingReq: p}
	st.txns = append(st.txns, t)
	if p.apply != nil {
		t.finished, t.value = true, interp.IntV(p.apply.man.seq)
	} else {
		st.unfinished++
	}
	return t
}

// reset readies a released slot for epoch: every field starts over, and the
// batch, round 0's order, the chain's plan and progress, the level counts and
// the decides' abort lists keep their backing stores, emptied.
// The batch keeps its member records too, for add to zero and reuse: the
// slot was released, so every member was answered, every worker installed
// the epoch and no event of it is in flight. Only copies of its finishes
// may be, and onFinished drops those that find their body reused; copies of
// its decides are dropped by every worker as stale (see plan).
func (st *epochState) reset(epoch int64) {
	kept := epochState{epoch: epoch, phase: phaseOpen, txns: st.txns[:0], order: st.order[:0],
		plan: st.plan, chain: st.chain, levelLeft: st.levelLeft[:0],
		aborts: [2][]aria.TID{st.aborts[0][:0], st.aborts[1][:0]}}
	kept.plan.Members, kept.plan.Depth, kept.chain.Plan = kept.plan.Members[:0], 0, nil
	*st = kept
}

// close fixes the batch: round 0's order is every member, in TID order.
func (st *epochState) close() {
	st.order = st.order[:0]
	for i := range st.txns {
		st.order = append(st.order, st.first+aria.TID(i))
	}
}

// validate runs Aria's conflict check over the batch's shipped reservation
// sets: a member aborts if it read or wrote a slot a lower TID wrote. Every
// set of a member is checked before any is added, which is the check over
// their union (aria.Validator). v is the coordinator's one validator,
// emptied here.
func (st *epochState) validate(v *aria.Validator) {
	v.Reset()
	for _, t := range st.txns {
		for s := t.sets; s != nil && !t.aborted; s = s.next {
			t.aborted = v.Conflicts(s.rw)
		}
		for s := t.sets; s != nil; s = s.next {
			v.Add(s.rw)
		}
	}
}

// scheduleFallback queues the batch's conflict aborts into the chain that
// re-executes them within this epoch. An application error alone is
// definitive and never re-executes — but an error on a member that also lost
// validation is tentative (it was observed under a voided footprint: the
// serial order may create the very entity the read missed), so it is rescued
// like any other conflict abort. Runs before the batch decide so the decide
// and the apply's settle both know which aborts the chain rescues. A batch
// without conflict aborts skips everything — the uncontended hot path pays
// only the set shipping on finishes.
//
// A member queues on appendRefs(req) plus every entity its first execution
// reserved, read from the sets its finish shipped (classOf names a
// reservation key's class): round 0 was the reconnaissance, and a
// re-execution that reaches past it drifts (see Worker.admitChained). For a ref-closed method the
// reservations add nothing — it can only touch its target and the entities
// passed to it — so its footprint is appendRefs, a superset of anything it
// can touch. Returns the number of members rescued: every conflict abort.
func (st *epochState) scheduleFallback(classOf func(int) string) (rescued int) {
	aborted := 0
	for _, t := range st.txns {
		if t.aborted {
			aborted++
		}
	}
	if aborted == 0 {
		return 0
	}
	aborts := st.plan.Members[:0]
	for i, t := range st.txns {
		if t.aborted {
			aborts = append(aborts, st.first+aria.TID(i))
		}
	}
	keys := make([]aria.ResKey, 0, 8)
	aria.PlanChain(&st.plan, aborts, func(i int, buf []interp.EntityRef) []interp.EntityRef {
		t := st.txn(aborts[i])
		buf = appendRefs(buf, t.req)
		for s := t.sets; s != nil; s = s.next {
			keys = s.rw.Keys(keys[:0])
			for _, k := range keys {
				buf = append(buf, interp.EntityRef{Class: classOf(int(k.Class)), Key: k.Key})
			}
		}
		return buf
	})
	for _, tid := range aborts {
		st.txn(tid).rescued = true
	}
	st.chain.Reset(&st.plan)
	return len(aborts)
}

// beginChain makes the scheduled chain the round in flight: its members, in
// the slot's own order, are all unfinished, and levelLeft counts them per
// depth level when the chain has more than one.
func (st *epochState) beginChain() {
	plan := &st.plan
	st.round, st.order, st.unfinished = 1, append(st.order[:0], plan.Members...), len(plan.Members)
	st.levelLeft = st.levelLeft[:0]
	if plan.Depth > 1 {
		st.levelLeft = slices.Grow(st.levelLeft, plan.Depth+1)[:plan.Depth+1]
		clear(st.levelLeft)
		for m := range plan.Members {
			st.levelLeft[plan.DepthOf(m)]++
		}
	}
}

// releaseChained releases chain member m on the coordinator's mirror of the
// queues, and reports whether that completed its depth level.
func (st *epochState) releaseChained(m int) (levelDone bool) {
	st.chain.Release(m)
	if len(st.levelLeft) == 0 {
		return false
	}
	d := st.plan.DepthOf(m)
	st.levelLeft[d]--
	return st.levelLeft[d] == 0
}

// decision is the deterministic global decision for the round in flight, as
// the message that broadcasts it. A transaction that failed with an
// application error commits nothing: it is treated as aborted for state
// purposes (its workspace writes are dropped) but answered with its error.
// Final: this is the epoch's last decide — the chain's, or the batch's when
// it scheduled none. A global apply is only ever a batch's last member
// (startApply, openBinding) and never conflict-aborts, so the batch decide
// carries it unless a binding cut dropped it.
func (st *epochState) decision() *msgDecide {
	dropped := func(t *txnState) bool { return t.aborted || t.err != "" }
	aborts := st.aborts[st.round][:0]
	for _, tid := range st.order {
		if dropped(st.txn(tid)) {
			aborts = append(aborts, tid)
		}
	}
	st.aborts[st.round] = aborts
	// Order is the workers' copy, inside the decide up to its inline length:
	// receivers only read it, and the slot's own order slice stays private
	// to the coordinator, which reuses it for a later epoch's round 0. (The
	// chain's order is the plan's member list, which the workers hold
	// already.) Aborts is the slot's list for the round, which no later round
	// of the epoch rewrites.
	m := &msgDecide{Epoch: st.epoch, Round: st.round, Aborts: aborts,
		Final: st.chained() || !st.scheduled()}
	if st.chained() {
		m.Order = st.plan.Members
	} else {
		m.Order = append(m.order[:0:len(m.order)], st.order...)
		if !m.Final {
			m.Chain = &st.plan // the batch decide announces the chain
		}
		if n := len(st.txns); n > 0 && st.txns[n-1].apply != nil && !dropped(st.txns[n-1]) {
			m.Apply = st.txns[n-1].apply
		}
	}
	return m
}

// outcome is what a round settled for one of its members.
type outcome int

const (
	outCommitted outcome = iota
	// outFailed: application error under a validated footprint —
	// definitive, no retry.
	outFailed
	// outRetried: conflict abort nothing in this epoch re-executes, or chain
	// member whose re-execution left its queued footprint; it retries in the
	// next batch (a binding batch's cut requeued it already).
	outRetried
	// outRescued: conflict abort the chain re-executes (and answers) within
	// this epoch.
	outRescued
)

// outcome classifies a member of the round in flight. The conflict cases
// come first: a conflict abort voids the tentative execution wholesale,
// errors included — the serial order the abort defers to may well remove the
// error's cause.
func (st *epochState) outcome(t *txnState) outcome {
	switch {
	case t.aborted && t.rescued && !st.chained():
		return outRescued
	case t.aborted:
		return outRetried
	case t.err != "":
		return outFailed
	}
	return outCommitted
}

// dispatch sends a member's root invocation to its owner for the round in
// flight, in the body that carries the round's call chain from then on.
// Round 0's message carries the body the member holds inline; the chain's
// allocates a fresh one, so that a body keeps its round (see msgTxnEvent).
func (c *Coordinator) dispatch(ctx *sim.Context, st *epochState, tid aria.TID) {
	t := st.txn(tid)
	body := &t.first
	if st.round > 0 {
		body = new(txnBody)
	}
	body.TID, body.Epoch, body.Round, body.ctx = tid, st.epoch, st.round, &body.chain
	body.forward(core.Event{
		Kind:   core.EvInvoke,
		Req:    t.req.Req,
		Target: t.req.Target,
		Method: t.req.Method,
		Args:   t.req.Args,
	}, nil)
	ctx.Send(c.sys.ownerOf(t.req.Target), msgTxnEvent{&body.txnEvent},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// assign gives a request a TID in the slot's batch and dispatches its
// first invocation event (a global apply has none).
func (c *Coordinator) assign(ctx *sim.Context, st *epochState, p pendingReq) {
	c.nextTID++
	t := st.add(c.nextTID, p)
	if tr := c.tracer(); tr.Enabled() {
		start := p.arrivedAt
		if start == 0 || start > ctx.Now() {
			start = ctx.Now()
		}
		tr.Span(c.sys.coordID, "txn", "ingress.queue", start, ctx.Now(),
			"trace", p.req.Trace.ID, "epoch", strconv.FormatInt(st.epoch, 10))
	}
	if !t.finished {
		c.dispatch(ctx, st, c.nextTID)
	}
}

// closeBatch ends the slot's open window: the source cursor freezes as the
// epoch's aligned cut and the batch waits for its members to finish — or,
// when every member already has (a lone global apply), moves on at once.
func (c *Coordinator) closeBatch(ctx *sim.Context, st *epochState) {
	st.consumedEnd = c.consumed
	st.close()
	c.enterPhase(ctx, st, phaseClosing)
	c.maybeDecide(ctx, st)
}

// onFinished records a transaction's root response (from the batch's
// first execution, with the reservation sets it shipped, or from the chain).
// The epoch stamp routes it to the right slot: with pipelining, finishes for
// the exec epoch arrive while the commit epoch is still applying. A body that
// is not an answer is a copy of a finish whose record a later request reuses,
// which has not answered yet, and is dropped (see msgTxnEvent); one that is
// an answer is a finish of whoever holds the body now.
func (c *Coordinator) onFinished(ctx *sim.Context, m msgTxnFinished) {
	if m.Ev != nil {
		return
	}
	if m.Round == readRound {
		c.onReadDone(ctx, m)
		return
	}
	if st, t := c.awaited(m.Epoch, m.Round, m.TID); t != nil {
		t.value, t.err, t.sets = m.Value, m.Err, m.Sets
		c.finish(ctx, st, t, m.TID)
	}
}

// onDrifted records a worker's report that a chain member's re-execution
// reached an entity it is not queued on (see Worker.admitChained): nothing of
// it was or will be installed, so it leaves the chain as a conflict abort and
// takes the next-batch retry. A repeated report, or one that arrives after
// the epoch's final decide, finds the member finished (or the epoch gone)
// and is dropped.
func (c *Coordinator) onDrifted(ctx *sim.Context, m msgChainRelease) {
	if st, t := c.awaited(m.Epoch, 1, m.TID); t != nil {
		t.aborted = true
		c.FallbackDriftDemotions++
		c.finish(ctx, st, t, m.TID)
	}
}

// awaited returns the in-flight epoch and its member a worker's message
// about (epoch, round, tid) is for — nils when it is stale: the batch was
// discarded by recovery, the round is over, or the member is accounted for.
func (c *Coordinator) awaited(epoch int64, round int, tid aria.TID) (*epochState, *txnState) {
	st := c.stageFor(epoch)
	if st == nil || round != st.round {
		return nil, nil
	}
	if t := st.txn(tid); t != nil && !t.finished {
		return st, t
	}
	return nil, nil
}

// finish counts member t of the round in flight as done. A member of the
// open batch may be the last one the batch waited for (see selfClose).
func (c *Coordinator) finish(ctx *sim.Context, st *epochState, t *txnState, tid aria.TID) {
	c.alive(ctx)
	t.finished = true
	st.unfinished--
	if st.chained() {
		c.stageChained(ctx, st, tid)
	}
	if st.phase == phaseOpen {
		c.selfClose(ctx, st)
		return
	}
	c.maybeDecide(ctx, st)
}

// selfClose closes the open batch as soon as it is non-empty, every member
// assigned so far has finished round 0 and the commit slot is free — group
// commit's leader rule (DeWitt et al., SIGMOD 1984): what arrives while the
// commit stage is busy forms the next batch, so a batch grows with load and
// shrinks to one member at idle, and the epoch timer is only the upper bound
// on its wait. Checked at every finish of an open batch's member and at every
// release of the commit slot; the batch then closes and promotes in the same
// event. Binding, fenced and recovering epochs never get here: a binding
// epoch closes in the event that opens it, a parked epoch stays empty until
// its apply closes it, and a recovery holds no slot. A shard with a fence
// pending does self-close, so it drains and parks sooner.
func (c *Coordinator) selfClose(ctx *sim.Context, st *epochState) {
	if c.commit == nil && len(st.txns) > 0 && st.unfinished == 0 {
		c.closeBatch(ctx, st)
	}
}

// stageChained answers the chain members a finish made answerable: the
// finished member itself once every predecessor on each of its entities has
// been answered, then — the coordinator's mirror of the queues moving on —
// whichever finished members were waiting only for it. Each completed depth
// level gets one group-commit sync; the level that completes the chain rides
// the batch's own final sync (or checkpoint).
func (c *Coordinator) stageChained(ctx *sim.Context, st *epochState, tid aria.TID) {
	m, ok := st.chain.Plan.Pos(tid)
	if !ok {
		return
	}
	// The cascade answered everything answerable, so members are left
	// exactly when some have not finished.
	if c.answerChained(ctx, st, m) && st.unfinished > 0 {
		c.journal.sync(ctx)
	}
}

// answerChained answers member m if it is finished and heads every queue of
// its footprint, then tries the members now at the head of those queues.
// Reports whether a depth level completed.
func (c *Coordinator) answerChained(ctx *sim.Context, st *epochState, m int) (levelDone bool) {
	plan := st.chain.Plan
	t := st.txn(plan.Members[m])
	if !t.finished || !st.chain.Ready(m) {
		return false
	}
	levelDone = st.releaseChained(m)
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	c.answer(ctx, st, t, st.outcome(t))
	for _, e := range plan.Footprint(m) {
		if next := st.chain.Head(e); next >= 0 && c.answerChained(ctx, st, next) {
			levelDone = true
		}
	}
	return levelDone
}

// maybeDecide advances a fully executed slot (Aria's execution barrier).
// A finished chain closes its epoch; a fully executed batch is promoted
// into the commit stage — unless the slot is still occupied, in which
// case the batch waits closed (backpressure: the pipeline is exactly two
// deep).
func (c *Coordinator) maybeDecide(ctx *sim.Context, st *epochState) {
	if st.phase != phaseClosing || st.unfinished != 0 {
		return
	}
	if st.chained() {
		// Nothing to validate: every member ran alone on its entities, in TID
		// order. One final decide closes the epoch on the workers.
		if plan := st.chain.Plan; c.tracer().Enabled() {
			drifted := 0
			for _, tid := range plan.Members {
				if st.txn(tid).aborted {
					drifted++
				}
			}
			c.phaseSpan(ctx, st, "fallback.round", "chain", "1", "depth", strconv.Itoa(plan.Depth),
				"members", strconv.Itoa(len(plan.Members)), "drifted", strconv.Itoa(drifted))
		}
		c.decide(ctx, st)
		return
	}
	if c.commit != nil {
		return // commit slot busy; promoted when it settles
	}
	c.promote(ctx, st)
}

// promote moves a fully executed batch into the commit stage, validates it
// over the reservation sets its finishes shipped and decides it. On the
// pipelined schedule the next epoch opens first, so its advance record rides
// this decide's group-commit sync and its batch accumulates and executes
// while this one applies.
func (c *Coordinator) promote(ctx *sim.Context, st *epochState) {
	c.commit = st
	if c.exec == st {
		c.exec = nil
	}
	// The execution window just ended: phaseAt was stamped when the batch
	// closed.
	c.phaseSpan(ctx, st, "execute")
	// A binding epoch's successor cannot open yet: which queue members it
	// takes is only known once validation says where the committed prefix
	// ends (decide opens it then).
	if !st.binding {
		c.openPipelined(ctx)
	}
	st.phaseAt = ctx.Now()
	ctx.Work(time.Duration(len(st.txns)) * c.sys.cfg.Costs.CommitCPU)
	st.validate(&c.validator)
	c.phaseSpan(ctx, st, "validate")
	c.decide(ctx, st)
}

// openPipelined opens the commit epoch's successor ahead of its release,
// so the successor accumulates and executes while the commit epoch
// applies and group-commits (workers buffer its events until the
// predecessor applies locally). While fenced — and on the serial schedule
// — the successor waits for releaseCommit instead: the fenced openEpoch
// path parks it (or runs a queued apply), and opening it early would just
// park it sooner with nothing to do.
func (c *Coordinator) openPipelined(ctx *sim.Context) {
	if !c.sys.cfg.DisablePipelining && c.fenceSeq == 0 {
		ctx.Work(c.sys.cfg.Costs.PipelineCPU)
		c.openEpoch(ctx)
	}
}

// broadcast sends one message of the round in flight to every worker.
func (c *Coordinator) broadcast(ctx *sim.Context, msg sim.Message) {
	for _, w := range c.sys.workerIDs {
		ctx.Send(w, msg, c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
}

// decide broadcasts the round's deterministic global decision. What is left
// of the epoch is settled first: a binding batch cuts itself down to its
// conflict-free prefix, and any other batch queues its conflict aborts into
// the chain. The decision is final once broadcast, so the batch's members
// are answered here — committed and failed ones respond, unrescued aborts
// retry — and the group-commit sync that releases them is issued: a worker
// that crashes before installing the decide is rolled back, and the binding
// replay rebuilds what was released.
func (c *Coordinator) decide(ctx *sim.Context, st *epochState) {
	switch {
	case st.chained():
		// Nothing to validate: the queues already ordered every conflict.
	case st.binding:
		// Binding epochs skip the fallback phase: it commits aborted members
		// out of queue order within the batch, and the binding replay's whole
		// contract is that conflicting members re-commit in release order.
		c.cutBinding(ctx, st)
	case !c.sys.cfg.DisableFallback:
		rescued := st.scheduleFallback(c.sys.prog.Layouts().ClassOf)
		ctx.Work(time.Duration(rescued) * c.sys.cfg.Costs.FallbackCPU)
	}
	c.enterPhase(ctx, st, phaseApply)
	clear(c.acks)
	m := st.decision()
	c.broadcast(ctx, m)
	if !st.chained() {
		if st.binding {
			// The cut settled what is left of the queue, so the successor (the
			// next binding batch, or the first normal epoch once the queue has
			// drained) opens now and executes under this epoch's apply and
			// group commit.
			c.openPipelined(ctx)
		}
		c.decided = st.epoch
		ctx.Work(time.Duration(len(st.order)) * c.sys.cfg.Costs.RoutingCPU)
		for _, tid := range st.order {
			t := st.txn(tid)
			c.answer(ctx, st, t, st.outcome(t))
		}
		c.journal.sync(ctx)
	}
	if m.Final {
		c.tap.epochDone(st.epoch) // every response the epoch gives is staged
	}
}

// onApplied settles the round once every worker installed it: the batch's
// chain dispatches — its members read round 0's installed writes — or the
// epoch is finished.
func (c *Coordinator) onApplied(ctx *sim.Context, from string, m msgApplied) {
	st := c.commit
	if st == nil || m.Epoch != st.epoch || st.phase != phaseApply || m.Round != st.round {
		return
	}
	if !c.ack(ctx, from) {
		return
	}
	c.phaseSpan(ctx, st, "apply")
	if !st.chained() && st.scheduled() {
		c.startChain(ctx, st)
		return
	}
	c.finishBatch(ctx, st)
}

// answer acts on what a round settled for one member: a commit or a
// definitive error responds, a conflict abort nobody rescued (the fallback
// is off, or the batch is a binding one past its cut) or a chain member that
// drifted retries, a rescued one waits for the chain.
func (c *Coordinator) answer(ctx *sim.Context, st *epochState, t *txnState, o outcome) {
	switch o {
	case outRescued:
	case outRetried:
		c.Aborts++
		// Past a binding batch's cut: cutBinding requeued it at the
		// decide, unconditionally (no budget, no retry bump) — its
		// response already escaped.
		if !st.binding {
			c.retryOrFail(ctx, t)
		}
	case outFailed:
		c.Failures++
		c.respond(ctx, t, sysapi.Response{Req: t.req.Req, Err: t.err, Retries: t.retries})
	case outCommitted:
		c.Commits++
		if st.chained() {
			c.FallbackCommits++
		}
		c.tap.commit(t.req.Req)
		c.respond(ctx, t, sysapi.Response{Req: t.req.Req, Value: t.value, Retries: t.retries})
	}
}

// retryOrFail sends a conflict abort back to the intake for the next batch,
// or — its retry budget spent — answers it as failed.
func (c *Coordinator) retryOrFail(ctx *sim.Context, t *txnState) {
	if t.retries+1 > c.sys.cfg.MaxRetries {
		c.Failures++
		c.respond(ctx, t, sysapi.Response{
			Req: t.req.Req, Err: "transaction aborted: retry budget exhausted",
			Retries: t.retries,
		})
		return
	}
	p := t.pendingReq
	p.retries++
	p.arrivedAt = ctx.Now()
	c.pending = append(c.pending, p)
}

// startChain makes the chain, all of it, the round in flight: each rescued
// transaction restarts its call chain from its root invocation, every member
// at once — the workers park what must wait, so a member reads the committed
// state plus exactly what the lower TIDs queued on the same entities left
// behind. A chain counts as the rounds a barrier schedule would have taken:
// its depth.
func (c *Coordinator) startChain(ctx *sim.Context, st *epochState) {
	plan := &st.plan
	st.beginChain()
	c.FallbackChains++
	c.FallbackRounds += plan.Depth
	if f := c.flight(); f.Enabled() {
		f.Recordf(ctx.Now(), c.sys.coordID, "fallback.chain", "epoch %d: %d members on %d entities, depth %d",
			st.epoch, len(plan.Members), len(plan.Refs), plan.Depth)
	}
	c.enterPhase(ctx, st, phaseClosing)
	for _, tid := range st.order {
		t := st.txn(tid)
		t.finished, t.value, t.err, t.aborted = false, interp.None, "", false
		c.dispatch(ctx, st, tid)
	}
}

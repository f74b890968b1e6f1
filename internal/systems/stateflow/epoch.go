// The coordinator's epoch machine: one batch of transactions from its
// first assignment through Aria's execute → validate → fallback → apply,
// as one round loop. Round 0 is the batch's own execution; every fallback
// round is the same prepare / vote / decide / applied / settle pass run
// over the subset of conflict aborts the deterministic schedule placed in
// it (Lu et al., VLDB 2020) — or, when every conflict abort has a static
// footprint, one chain round with no barrier inside it (aria.ChainPlan).
//
// This file owns the per-epoch protocol state (epochState, the transaction
// record, the ack set) and every step that reads or writes it. What can be
// decided from an epochState alone — the fallback schedule, drift demotion,
// a round's decision, a member's outcome, the next round — is a method on
// *epochState and takes no sim.Context; the Coordinator methods below wrap
// those steps with what the deployment adds: messages, cost-model CPU,
// counters, responses and the journal. Intake, recovery, snapshots and the
// pipeline's slot management live in coordinator.go.
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
	// (req then carries only the apply's id and target; see
	// globalApply.pending).
	apply *globalApply
}

// txnState is a request inside a batch: the request as it was taken from
// the intake (requeueing it copies the embedded value back out) plus what
// the epoch's rounds learn about it.
type txnState struct {
	pendingReq
	// root is the transaction's root invocation event. Executors only read
	// events, so the first execution and every fallback re-execution send
	// this one.
	root     core.Event
	finished bool
	value    interp.Value
	err      string
	// aborted: the round in flight voided this member's execution — a
	// worker's validation vote, a drift demotion or a binding cut. Reset
	// when the member's next round dispatches.
	aborted bool
	// rescued: the fallback schedule re-executes the member within this
	// epoch, so it skips the next-batch retry path. footprint is its merged
	// reservation set, retained across the rounds (declared at schedule
	// time, widened as re-executions drift): the per-round drift check
	// compares a would-be committer's observed footprint against the
	// not-yet-committed lower-TID members' retained ones.
	rescued   bool
	footprint *aria.RWSet
}

// ackSet collects the answers to a phase that waits on every worker.
type ackSet map[string]bool

// add records from's answer, out of n expected. fresh: the worker had not
// answered this phase yet — the only kind of answer that counts as progress
// for the failure detector (see Coordinator.ack); done: the answer
// completed the set, so the phase advances. A duplicate is neither.
func (a *ackSet) add(from string, n int) (fresh, done bool) {
	if (*a)[from] {
		return false, false
	}
	if *a == nil {
		*a = make(ackSet, n)
	}
	(*a)[from] = true
	return true, len(*a) == n
}

// epochState is one slot of the coordinator's pipeline stage table: the
// full per-epoch protocol state, from the open batch through validation,
// fallback rounds and apply. The epoch number is the demultiplexing key —
// worker messages carry it, and stageFor routes them to the slot they
// belong to — so two epochs can be in flight without their votes, acks or
// finishes contaminating each other.
type epochState struct {
	epoch int64
	phase phase
	// phaseAt is when the current phase began (set by enterPhase and at
	// batch close) — the start timestamp of the phase's trace span.
	// Purely observational.
	phaseAt time.Duration

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
	// enforces it).
	first aria.TID
	txns  []*txnState
	// unfinished counts members of the round in flight whose root response
	// has not arrived yet; it makes the per-finish completion check O(1).
	unfinished int

	// consumedEnd freezes the source cursor at batch close: it is this
	// epoch's aligned cut. The pipelined successor keeps consuming past it
	// while this epoch commits, so the snapshot taken at this epoch's
	// boundary must record this value — not the live cursor — as its
	// replay offset.
	consumedEnd int64

	// The round loop. round is the round in flight (0: the batch's first
	// execution) and order its members in TID order (round 0: the whole
	// batch, set at close); rounds holds the not-yet-executed re-execution
	// rounds of the deterministic fallback schedule. acks is the phase in
	// flight's worker answers (votes, then applies). votes holds the
	// per-worker local reservation sets shipped with the round's votes —
	// merged into global footprints only if the batch actually has conflict
	// aborts, so an uncontended batch pays nothing beyond the shipping.
	// final: the round's decide was the epoch's last.
	round  int
	order  []aria.TID
	rounds [][]aria.TID
	acks   ackSet
	votes  []map[aria.TID]*aria.RWSet
	final  bool

	// chain replaces rounds when every conflict abort of the batch has a
	// static footprint: the aborts re-execute as one round (round 1) that the
	// workers gate by per-entity TID queues instead of a barrier. This is the
	// coordinator's mirror of those queues: a member is released here when its
	// response is staged, which happens as soon as it has finished and every
	// predecessor on each of its entities has been staged — so the journal's
	// append order stays a serial order without anybody waiting for the end of
	// the chain. levelLeft counts the members of each depth level not staged
	// yet (nil for a chain of depth 1).
	chain     *aria.Chain
	levelLeft []int32
}

// chained reports whether the round in flight is a chain.
func (st *epochState) chained() bool { return st.chain != nil && st.round > 0 }

// txn returns the batch member with the given TID (nil: not in this batch).
func (st *epochState) txn(tid aria.TID) *txnState {
	if i := int(tid - st.first); i >= 0 && i < len(st.txns) {
		return st.txns[i]
	}
	return nil
}

// add places a request in the batch under a freshly minted TID.
func (st *epochState) add(tid aria.TID, p pendingReq) {
	if len(st.txns) == 0 {
		st.first = tid
	}
	if want := st.first + aria.TID(len(st.txns)); tid != want {
		// The TID-indexed batch rests on this: TIDs are minted one at a
		// time and only the open exec slot takes them.
		panic(fmt.Sprintf("stateflow: epoch %d assigned TID %d, want %d", st.epoch, tid, want))
	}
	st.txns = append(st.txns, &txnState{pendingReq: p, root: core.Event{
		Kind:   core.EvInvoke,
		Req:    p.req.Req,
		Target: p.req.Target,
		Method: p.req.Method,
		Args:   p.req.Args,
	}})
	st.unfinished++
}

// close fixes the batch: round 0's order is every member, in TID order.
func (st *epochState) close() {
	st.order = make([]aria.TID, len(st.txns))
	for i := range st.order {
		st.order[i] = st.first + aria.TID(i)
	}
}

// vote folds one worker's validation vote into the round.
func (st *epochState) vote(aborts []aria.TID, sets map[aria.TID]*aria.RWSet) {
	for _, tid := range aborts {
		st.txn(tid).aborted = true
	}
	if len(sets) > 0 {
		st.votes = append(st.votes, sets)
	}
}

// takeVotes merges the reservation sets the round's votes shipped into one
// global footprint per transaction, and forgets the votes. Copied, never
// aliased: the workers wipe their workspaces at decide while the
// footprints must survive into the fallback rounds.
func (st *epochState) takeVotes() map[aria.TID]*aria.RWSet {
	merged := map[aria.TID]*aria.RWSet{}
	for _, sets := range st.votes {
		for tid, rw := range sets {
			m, ok := merged[tid]
			if !ok {
				m = aria.NewRWSet()
				merged[tid] = m
			}
			m.Merge(rw)
		}
	}
	st.votes = nil
	return merged
}

// scheduleFallback computes the deterministic fallback schedule over the
// batch's conflict aborts. An application error alone is definitive and
// never re-executes — but an error on a member that also lost validation
// is tentative (it was observed under a voided footprint: the serial order
// may create the very entity the read missed), so it is rescued like any
// other conflict abort. Runs before the batch decide so the decide/apply
// wave and the settle both know which aborts the fallback phase rescues. A
// batch without conflict aborts skips everything — the uncontended hot path
// pays only the set shipping on votes.
//
// Which schedule is a property of the input: when static says every abort's
// footprint is known from its request alone (see Coordinator.staticFootprint)
// the schedule is a chain, budget deep at most — the members a deeper chain
// would have held spill to the next batch; otherwise it is the
// dependency-graph pass (aria.Fallback) on the global footprints merged from
// the batch votes, filtered down to the conflict-aborted members, and the
// budget is applied round by round (see decision). Returns the number of
// members rescued and spilled.
func (st *epochState) scheduleFallback(static func(*txnState) bool, budget int) (rescued, spilled int) {
	aborted, dynamic := 0, false
	for _, t := range st.txns {
		if t.aborted {
			aborted++
			dynamic = dynamic || !static(t)
		}
	}
	if aborted == 0 {
		st.votes = nil
		return 0, 0
	}
	if !dynamic {
		st.votes = nil // the footprints come from the requests
		aborts := make([]aria.TID, 0, aborted)
		for i, t := range st.txns {
			if t.aborted {
				aborts = append(aborts, st.first+aria.TID(i))
			}
		}
		plan, left := aria.PlanChain(aborts, func(i int, buf []interp.EntityRef) []interp.EntityRef {
			return appendRefs(buf, st.txn(aborts[i]).req)
		}, budget)
		for _, tid := range plan.Members {
			st.txn(tid).rescued = true
		}
		chain := aria.NewChain(plan)
		st.chain = &chain
		return len(plan.Members), len(left)
	}
	merged := st.takeVotes()
	for _, members := range aria.Fallback(st.order, merged).Rounds {
		var keep []aria.TID
		for _, tid := range members {
			if t := st.txn(tid); t.aborted {
				keep = append(keep, tid)
				// Retain the footprint: the schedule guarantees a member
				// runs after every lower-TID member it (declaredly)
				// conflicts with, and the per-round drift check needs these
				// sets to keep that guarantee when re-executions drift off
				// their declarations.
				t.rescued, t.footprint = true, merged[tid]
			}
		}
		if len(keep) > 0 {
			st.rounds = append(st.rounds, keep)
			rescued += len(keep)
		}
	}
	return rescued, 0
}

// demoteDrifted closes the fallback footprint-drift hole. A round member
// re-executes against a later state than its first execution, so its
// observed footprint can drift off the declared one the schedule was
// computed from. Drift against same-round members is caught by the
// round's own validation — but a would-be committer whose drifted
// footprint newly conflicts with a *later-round, lower-TID* member would
// commit ahead of it, breaking the invariant that conflicting
// transactions commit in source order. That invariant is what lets any
// schedule that re-derives commit order from the source log — the
// historical TID-order recovery re-cut (see Reinject.ReplayOrder)
// and the fallback-disabled differential — reproduce exactly the
// responses this schedule released; silently giving it up is the bug
// (the binding-prefix replay shields clients from the recovery half, but
// the invariant is what the differential and the drift regression tests
// pin). Demote such members instead: they merge into the next round and
// re-run after the member they must follow. Round votes ship the
// observed reservation sets (see Worker.onPrepare) to make the check
// possible. Returns the number of members demoted.
func (st *epochState) demoteDrifted() (demotions int) {
	observed := st.takeVotes()
	// Not-yet-committed members: every later round's, plus this round's
	// demotions as the ascending scan accumulates them — by the time a
	// member is checked, every lower-TID same-round demotion is pending.
	pending := slices.Concat(st.rounds...)
	for _, tid := range st.order { // TID-sorted
		t := st.txn(tid)
		if t.aborted {
			pending = append(pending, tid)
			continue
		}
		if t.err != "" {
			continue // definitive error: commits nothing, follows no one
		}
		rw := observed[tid]
		if rw == nil {
			continue
		}
		for _, lower := range pending {
			fp := st.txn(lower).footprint
			if lower < tid && fp != nil && aria.Conflicts(rw, fp) {
				t.aborted = true
				pending = append(pending, tid)
				demotions++
				break
			}
		}
	}
	// Widen demoted members' retained footprints by what this round
	// observed: their next re-execution may drift either way, and later
	// drift checks against them must stay conservative.
	for _, tid := range st.order {
		if t, rw := st.txn(tid), observed[tid]; t.aborted && rw != nil && t.footprint != nil {
			t.footprint.Merge(rw)
		}
	}
	return demotions
}

// decision is the deterministic global decision for the round in flight
// once its votes are unanimous, as the message that broadcasts it. A
// transaction that failed with an application error commits nothing: it is
// treated as aborted for state purposes (its workspace writes are dropped)
// but answered at the settle. Final: this is the epoch's last decide — no
// round is scheduled and no member of this one must re-run, or the round
// budget is reached (the epoch ends here and the leftovers spill into the
// next batch).
func (st *epochState) decision(budget int) msgDecide {
	dropped := func(t *txnState) bool { return t.aborted || t.err != "" }
	n, rerun := 0, false
	for _, tid := range st.order {
		t := st.txn(tid)
		if dropped(t) {
			n++
		}
		rerun = rerun || (t.aborted && t.rescued)
	}
	aborts := make([]aria.TID, 0, n)
	for _, tid := range st.order {
		if dropped(st.txn(tid)) {
			aborts = append(aborts, tid)
		}
	}
	// Order is the workers' copy: receivers only read it, and the slot's own
	// order slices stay private to the coordinator. (A chain's order is the
	// plan's member list, which the workers hold already.)
	m := msgDecide{Epoch: st.epoch, Round: st.round, Order: st.order, Aborts: aborts,
		Final: len(st.rounds) == 0 && !rerun || budget > 0 && st.round >= budget}
	if !st.chained() {
		m.Order = slices.Clone(st.order)
		if st.chain != nil {
			m.Chain = st.chain.Plan // the batch decide announces the chain
		}
	}
	return m
}

// outcome is what an applied round settled for one of its members.
type outcome int

const (
	outCommitted outcome = iota
	// outFailed: application error under a validated footprint —
	// definitive, no retry.
	outFailed
	// outRetried: conflict abort nothing in this epoch re-executes; it
	// retries in the next batch (a binding batch's cut requeued it already).
	outRetried
	// outRescued: conflict abort the fallback schedule re-executes (and
	// answers) within this epoch; it is already in a scheduled round.
	outRescued
	// outDemoted: fallback round member that must re-run with the next
	// round (validation or the drift check voided this re-execution).
	outDemoted
)

// outcome classifies a member of the round that just applied. The conflict
// cases come first: a conflict abort voids the tentative execution
// wholesale, errors included — the serial order the abort defers to may
// well remove the error's cause.
func (st *epochState) outcome(t *txnState) outcome {
	switch {
	case t.aborted && st.round > 0:
		return outDemoted
	case t.aborted && t.rescued:
		return outRescued
	case t.aborted:
		return outRetried
	case t.err != "":
		return outFailed
	}
	return outCommitted
}

// requeue merges a round's demoted members into the next round (kept in
// TID order, so the round's internal validation stays deterministic).
func (st *epochState) requeue(demoted []aria.TID) {
	if len(demoted) == 0 {
		return
	}
	if len(st.rounds) == 0 {
		st.rounds = [][]aria.TID{nil}
	}
	st.rounds[0] = append(demoted, st.rounds[0]...)
	slices.Sort(st.rounds[0])
}

// spill empties the schedule: every not-yet-executed fallback member, in
// TID order.
func (st *epochState) spill() []aria.TID {
	out := slices.Concat(st.rounds...)
	slices.Sort(out)
	st.rounds = nil
	return out
}

// nextRound makes the next scheduled round — or the chain, all of it — the
// round in flight and resets its members for their re-execution.
func (st *epochState) nextRound() {
	if st.chain != nil {
		plan := st.chain.Plan
		st.order = plan.Members
		if plan.Depth > 1 {
			st.levelLeft = make([]int32, plan.Depth+1)
			for m := range plan.Members {
				st.levelLeft[plan.DepthOf(m)]++
			}
		}
	} else {
		st.order, st.rounds = st.rounds[0], st.rounds[1:]
	}
	st.round++
	st.unfinished = len(st.order)
	for _, tid := range st.order {
		t := st.txn(tid)
		t.finished, t.value, t.err, t.aborted = false, interp.None, "", false
	}
}

// dispatch sends a member's root invocation to its owner for the round in
// flight.
func (c *Coordinator) dispatch(ctx *sim.Context, st *epochState, tid aria.TID) {
	t := st.txn(tid)
	ctx.Send(c.sys.ownerOf(t.req.Target),
		msgTxnEvent{TID: tid, Epoch: st.epoch, Round: st.round, Ev: &t.root, Apply: t.apply.firstHop()},
		c.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// assign gives a request a TID in the slot's batch and dispatches its
// first invocation event.
func (c *Coordinator) assign(ctx *sim.Context, st *epochState, p pendingReq) {
	c.nextTID++
	st.add(c.nextTID, p)
	if tr := c.tracer(); tr.Enabled() {
		start := p.arrivedAt
		if start == 0 || start > ctx.Now() {
			start = ctx.Now()
		}
		tr.Span(c.sys.coordID, "txn", "ingress.queue", start, ctx.Now(),
			"trace", p.req.Trace.ID, "epoch", strconv.FormatInt(st.epoch, 10))
	}
	c.dispatch(ctx, st, c.nextTID)
}

// closeBatch ends the slot's open window: the source cursor freezes as the
// epoch's aligned cut and the batch waits for its members to finish.
func (c *Coordinator) closeBatch(ctx *sim.Context, st *epochState) {
	st.consumedEnd = c.consumed
	st.close()
	c.enterPhase(ctx, st, phaseClosing)
}

// onFinished records a transaction's root response (from the batch's
// first execution or from the fallback round in flight). The epoch stamp
// routes it to the right slot: with pipelining, finishes for the exec
// epoch arrive while the commit epoch is still validating.
func (c *Coordinator) onFinished(ctx *sim.Context, m msgTxnFinished) {
	st := c.stageFor(m.Epoch)
	if st == nil || m.Round != st.round {
		return // stale: batch discarded by recovery, or a finished round
	}
	t := st.txn(m.TID)
	if t == nil || t.finished {
		return
	}
	c.alive(ctx)
	t.finished = true
	t.value = m.Value
	t.err = m.Err
	st.unfinished--
	if st.chained() {
		c.stageChained(ctx, st, m.TID)
	}
	c.maybePrepare(ctx, st)
}

// stageChained answers the chain members a finish made answerable: the
// finished member itself once every predecessor on each of its entities has
// been answered, then — the coordinator's mirror of the queues moving on —
// whichever finished members were waiting only for it. Each completed depth
// level gets one group-commit sync; the level that completes the chain rides
// the batch's own final sync (or checkpoint), which is the sync count the
// same schedule cost as barrier rounds.
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
	st.chain.Release(m)
	ctx.Work(c.sys.cfg.Costs.RoutingCPU)
	c.answer(ctx, st, t, st.outcome(t))
	if st.levelLeft != nil {
		d := plan.DepthOf(m)
		st.levelLeft[d]--
		levelDone = st.levelLeft[d] == 0
	}
	for _, e := range plan.Footprint(m) {
		if next := st.chain.Head(e); next >= 0 && c.answerChained(ctx, st, next) {
			levelDone = true
		}
	}
	return levelDone
}

// maybePrepare advances a fully executed slot (Aria's execution barrier).
// A fallback round validates in place; a fully executed batch is promoted
// into the commit stage — unless the slot is still occupied, in which
// case the batch waits closed (backpressure: the pipeline is exactly two
// deep).
func (c *Coordinator) maybePrepare(ctx *sim.Context, st *epochState) {
	if st.phase != phaseClosing || st.unfinished != 0 {
		return
	}
	if st.chained() {
		// Nothing to validate: every member ran alone on its entities, in TID
		// order. One final decide closes the epoch on the workers.
		if plan := st.chain.Plan; c.tracer().Enabled() {
			c.phaseSpan(ctx, st, "fallback.round", "chain", "1",
				"depth", strconv.Itoa(plan.Depth), "members", strconv.Itoa(len(plan.Members)))
		}
		c.decide(ctx, st)
		return
	}
	if st.round > 0 {
		c.sendPrepare(ctx, st)
		return
	}
	if c.commit != nil {
		return // commit slot busy; promoted when it settles
	}
	c.promote(ctx, st)
}

// promote moves a fully executed batch into the commit stage and — on the
// pipelined schedule — opens the next epoch immediately, so its batch
// accumulates and executes while this one validates, applies and
// group-commits.
func (c *Coordinator) promote(ctx *sim.Context, st *epochState) {
	c.commit = st
	if c.exec == st {
		c.exec = nil
	}
	c.sendPrepare(ctx, st)
	// A binding epoch's successor cannot open yet: which queue members it
	// takes is only known once this batch's votes say where the committed
	// prefix ends (decide opens it then).
	if !st.binding {
		c.openPipelined(ctx)
	}
}

// openPipelined opens the commit epoch's successor ahead of its release,
// so the successor accumulates and executes while the commit epoch
// applies and group-commits (workers buffer its events until the
// predecessor applies locally). While fenced — and on the serial schedule
// — the successor waits for releaseCommit instead: the fenced openEpoch
// path parks it (or runs a queued apply), and opening it early would just
// park it sooner with nothing to do.
func (c *Coordinator) openPipelined(ctx *sim.Context) {
	if !c.sys.cfg.DisablePipelining && !c.fenced {
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

// sendPrepare starts validation of the round in flight on every worker.
func (c *Coordinator) sendPrepare(ctx *sim.Context, st *epochState) {
	// The execution window just ended: phaseAt was stamped when the batch
	// closed (or the fallback round dispatched).
	if st.round > 0 {
		c.phaseSpan(ctx, st, "fallback.round")
	} else {
		c.phaseSpan(ctx, st, "execute")
	}
	c.enterPhase(ctx, st, phasePrepare)
	clear(st.acks)
	// One copy for all workers: receivers only read it, and the slot's own
	// order slices must stay private to the coordinator.
	c.broadcast(ctx, msgPrepare{Epoch: st.epoch, Round: st.round, Order: slices.Clone(st.order)})
}

// onVote accumulates worker votes; when unanimous, the round is decided.
func (c *Coordinator) onVote(ctx *sim.Context, from string, m msgVote) {
	st := c.commit
	if st == nil || m.Epoch != st.epoch || st.phase != phasePrepare || m.Round != st.round {
		return
	}
	fresh, done := c.ack(ctx, &st.acks, from)
	if !fresh {
		return
	}
	st.vote(m.Aborts, m.Sets)
	if !done {
		return
	}
	c.phaseSpan(ctx, st, "validate")
	c.decide(ctx, st)
}

// decide broadcasts the round's deterministic global decision. What is left
// of the epoch is settled first: a fallback round demotes the members whose
// re-execution drifted, a binding batch cuts itself down to its
// conflict-free prefix, and any other batch schedules its fallback rounds
// over the conflict aborts.
func (c *Coordinator) decide(ctx *sim.Context, st *epochState) {
	switch {
	case st.chained():
		// No votes were taken: the queues already ordered every conflict.
	case st.round > 0:
		if c.sys.cfg.Reinject.FallbackDrift {
			st.votes = nil // test hook: reproduce the pre-fix behavior
		} else {
			c.FallbackDriftDemotions += st.demoteDrifted()
		}
	case st.binding:
		// Binding epochs skip the fallback phase: its rescue rounds commit
		// aborted members out of queue order within the batch, and the
		// binding replay's whole contract is that conflicting members
		// re-commit in release order.
		c.cutBinding(ctx, st)
	case !c.sys.cfg.DisableFallback:
		rescued, spilled := st.scheduleFallback(c.staticFootprint, c.sys.cfg.FallbackRoundBudget)
		ctx.Work(time.Duration(rescued) * c.sys.cfg.Costs.FallbackCPU)
		c.FallbackSpills += spilled
	}
	m := st.decision(c.sys.cfg.FallbackRoundBudget)
	st.final = m.Final
	c.enterPhase(ctx, st, phaseApply)
	clear(st.acks)
	c.broadcast(ctx, m)
	if st.binding {
		// The cut settled what is left of the queue, so the successor (the
		// next binding batch, or the first normal epoch once the queue has
		// drained) opens now and executes under this epoch's apply and
		// group commit.
		c.openPipelined(ctx)
	}
}

// cutBinding settles a binding batch at its unanimous vote: the longest
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
		if c.uncutBinding && !t.aborted {
			continue
		}
		t.aborted = true
		p := t.pendingReq
		p.arrivedAt = ctx.Now()
		requeue = append(requeue, p)
	}
	c.replaying = append(requeue, c.replaying...)
}

// onApplied settles the round once every worker installed it.
func (c *Coordinator) onApplied(ctx *sim.Context, from string, m msgApplied) {
	st := c.commit
	if st == nil || m.Epoch != st.epoch || st.phase != phaseApply || m.Round != st.round {
		return
	}
	if _, done := c.ack(ctx, &st.acks, from); !done {
		return
	}
	c.phaseSpan(ctx, st, "apply")
	c.settle(ctx, st)
}

// settle finishes an applied round: committed members respond (staged onto
// the durable log's group commit), an application error is definitive
// whichever round observed it, conflict aborts the schedule rescued wait
// for their round, the others retry in the next batch, and a fallback
// round's demoted members merge into the next round. (A chain's members were
// answered one by one as they finished, see stageChained: its settle only
// closes the epoch.) Then the next round dispatches or the batch is
// finished. Validation commits at least the lowest TID of every round, so
// the schedule always drains within the batch — unless the round budget cut
// it short, in which case every still-unrescued member spills into the next
// batch's retry queue, in TID order: the budget bounds how long a
// pathologically contended batch can hold its epoch (and, pipelined, the
// commit slot) hostage. Spilled members count as aborts — they take the same
// next-batch retry path a non-rescued conflict abort takes, with the same
// retry-budget bound. (A chain is cut to the budget when it is planned: its
// spills are round 0's unrescued aborts.)
func (c *Coordinator) settle(ctx *sim.Context, st *epochState) {
	var demoted []aria.TID
	if !st.chained() {
		ctx.Work(time.Duration(len(st.order)) * c.sys.cfg.Costs.RoutingCPU)
		for _, tid := range st.order {
			t := st.txn(tid)
			if o := st.outcome(t); o == outDemoted {
				demoted = append(demoted, tid)
			} else {
				c.answer(ctx, st, t, o)
			}
		}
	}
	st.requeue(demoted)
	if st.final {
		for _, tid := range st.spill() {
			c.Aborts++
			c.FallbackSpills++
			c.retryOrFail(ctx, st.txn(tid))
		}
	}
	if len(st.rounds) > 0 || st.chain != nil && st.round == 0 {
		c.journal.sync(ctx)
		c.startRound(ctx, st)
		return
	}
	c.finishBatch(ctx, st)
}

// answer acts on what a round settled for one member that does not re-run:
// a commit or a definitive error responds, a conflict abort nobody rescued
// retries, a rescued one waits for its round.
func (c *Coordinator) answer(ctx *sim.Context, st *epochState, t *txnState, o outcome) {
	switch o {
	case outRescued:
	case outRetried:
		c.Aborts++
		// Past a binding batch's cut: cutBinding requeued it at the
		// vote, unconditionally (no budget, no retry bump) — its
		// response already escaped.
		if !st.binding {
			c.retryOrFail(ctx, t)
		}
	case outFailed:
		c.Failures++
		c.respond(ctx, t, sysapi.Response{Req: t.req.Req, Err: t.err, Retries: t.retries})
	case outCommitted:
		c.Commits++
		if st.round > 0 {
			c.FallbackCommits++
		}
		c.traceCommit(t.req.Req)
		c.respond(ctx, t, sysapi.Response{Req: t.req.Req, Value: t.value, Retries: t.retries})
	}
}

// retryOrFail sends a conflict abort nothing rescued back to the intake for
// the next batch, or — its retry budget spent — answers it as failed.
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

// startRound dispatches the next fallback re-execution round: each
// rescued transaction restarts its call chain from its root invocation
// against the now-current committed state (standard commits plus every
// earlier round). Round members have pairwise-disjoint declared
// footprints, so they re-execute concurrently; the round is then
// validated like a miniature batch, which catches footprints that drifted
// under the re-read values. A chain dispatches every member at once — the
// workers park what must wait — and counts as the rounds it would have
// taken: its depth.
func (c *Coordinator) startRound(ctx *sim.Context, st *epochState) {
	st.nextRound()
	if st.chained() {
		plan := st.chain.Plan
		c.FallbackChains++
		c.FallbackRounds += plan.Depth
		if f := c.flight(); f != nil {
			f.Recordf(ctx.Now(), c.sys.coordID, "fallback.chain", "epoch %d: %d members on %d entities, depth %d",
				st.epoch, len(plan.Members), len(plan.Refs), plan.Depth)
		}
	} else {
		c.FallbackRounds++
	}
	c.enterPhase(ctx, st, phaseClosing)
	for _, tid := range st.order {
		c.dispatch(ctx, st, tid)
	}
}

// staticFootprint reports whether a batch member's footprint is known from
// its request alone: its method is ref-closed (ir.Program.RefClosed), so it
// can only touch its target and the entities passed to it (appendRefs).
// Constructors and global applies are not: they create, or install, rows the
// request does not name as references.
func (c *Coordinator) staticFootprint(t *txnState) bool {
	if t.apply != nil || t.req.Method == "__init__" {
		return false
	}
	m := c.sys.prog.MethodOf(t.req.Target.Class, t.req.Method)
	if m == nil {
		return false
	}
	static, ok := c.refClosed[m]
	if !ok {
		static = c.sys.prog.RefClosed(t.req.Target.Class, t.req.Method)
		c.refClosed[m] = static
	}
	return static
}

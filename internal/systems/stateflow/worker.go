// The StateFlow worker: hosts a partition of every operator's state,
// executes transaction call chains against per-transaction Aria
// workspaces, ships their reservation sets along each chain to the
// coordinator (which validates the batch), applies decided batches, and
// persists snapshots. The paper's deployment bundles "execution, state, and
// messaging" on each worker core (§4), which is exactly this component.
//
// With the pipelined coordinator, two epochs can address a worker at
// once: the committing epoch's decide and the next epoch's execution
// events. The worker keeps per-epoch workspace sets — the epoch
// stamp is a demultiplexing key, not just a staleness guard — and an
// applied high-water mark: events for epoch N+1 buffer until N's final
// decide is applied locally, so every execution still reads the
// serializable committed prefix.
package stateflow

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// workerEpoch is one epoch's execution state on this worker: its live
// workspaces (nil until the first) and its round high-water mark (0: the
// batch's first execution, 1: the chain). A delayed or duplicated
// decide/event from the finished batch round must be dropped — a stale
// decide would otherwise wipe the chain's in-flight workspaces. A worker the
// batch never reached has none: it settles the epoch without one (see
// reached). An epoch's final decide retires its entry to the worker's free
// list, and liveEpoch reuses it — workspace map and chain storage included —
// for a later epoch; its txnWorks go to the worker's pool of them.
//
// The plan is the coordinator slot's, which replans into it once the slot is
// released — after every worker acked the epoch's final decide. By then this
// entry is retired, and retire dropped the plan and emptied the chain, so no
// parked event or plan pointer survives into the next epoch the entry
// serves; a later copy of the epoch's batch decide, which carries the plan,
// is stale by its Epoch (reached) and is dropped before anything reads it.
// The entries onRecover wipes are never reused.
type workerEpoch struct {
	workspaces map[aria.TID]*txnWork
	round      int
	// plan is set by a batch decide that schedules a fallback (see
	// aria.ChainPlan): the epoch's re-executions are gated by its per-entity
	// TID queues. chain is this worker's part in it, started on first use
	// (nil before) — most workers see only a few members of a chain, many
	// none — in kept, the storage the entry keeps from chain to chain.
	plan  *aria.ChainPlan
	chain *workerChain
	kept  workerChain
}

// txnWork is one transaction's part on this worker in one epoch, made in one
// allocation: its workspace, and the node that ships the workspace's
// reservation set along the transaction's round-0 call chain (see shipSets).
// Finishes carry pointers into it, which the coordinator reads no later than
// the batch decide; a round's txnWorks return to the worker's pool, zeroed,
// when the decide that ends the round applies here (or, for a chain member,
// its release), and a later transaction's workspace reuses them. The epochs
// onRecover wipes take theirs with them (see msgTxnEvent).
type txnWork struct {
	ws   aria.Workspace
	sets rwSets
}

// workerChain is one worker's progress through an epoch's chain, and parked
// the events waiting for their member to head their entity's queue, by
// member (a call chain has one event in flight).
type workerChain struct {
	aria.Chain
	parked []parkedEvent
}

// progress returns (starting it on first use) the worker's progress through
// the epoch's chain plan.
func (ep *workerEpoch) progress() *workerChain {
	if ep.chain == nil {
		ep.chain = &ep.kept
		ep.chain.Reset(ep.plan)
	}
	return ep.chain
}

// empty forgets the chain's plan and every parked event, keeping the
// storage for the next chain.
func (ch *workerChain) empty() {
	clear(ch.parked)
	ch.Plan, ch.parked = nil, ch.parked[:0]
}

// parkedEvent is a chain member's event waiting for entity e's queue to
// drain down to the member (txnEvent nil: the member has nothing parked).
// at is when it parked, for the chain.wait trace span.
type parkedEvent struct {
	msgTxnEvent
	e  int32
	at time.Duration
}

// Worker is one StateFlow worker node.
type Worker struct {
	sys *System
	ex  *core.Executor // the deployment's one executor
	id  string
	idx int

	committed *state.Store

	// epochs holds per-epoch execution state, keyed by the coordination
	// epoch; an epoch's entry moves to free when its final decide applies.
	epochs map[int64]*workerEpoch
	free   []*workerEpoch
	// works is the pool of txnWorks that settled rounds gave back, for
	// workspace to reuse.
	works []*txnWork
	// appliedEpoch is the newest epoch whose final decide this worker
	// installed (-1: nothing yet). It is both the staleness guard
	// (messages at or below it belong to a settled or discarded world)
	// and the serializability gate: epoch E may execute only once E-1 is
	// applied here. Purely worker-local state — a real node could keep it.
	appliedEpoch int64
	// buffered parks execution events that arrived ahead of their
	// predecessor's final decide (the pipelined coordinator dispatches
	// epoch N+1 while N commits); they release when appliedEpoch reaches
	// their epoch minus one. spare is the list releaseBuffered emptied last,
	// for the next epoch buffered to reuse.
	buffered map[int64][]msgTxnEvent
	spare    []msgTxnEvent

	WorkerStats
	// CPU attributes the worker's cost-model CPU time to runtime components
	// for the §4 overhead experiment.
	CPU WorkerCPU
}

// WorkerStats are a worker's counters, published through RegisterMetrics
// under "worker.", summed over the workers.
type WorkerStats struct {
	// Applied counts applied (committed) transactions.
	Applied int
	// CorruptSnapshotImages counts recoveries that found this worker's
	// image of the restored snapshot undecodable and came back empty —
	// corruption outside the snapshot store's contract, never expected to
	// be non-zero.
	CorruptSnapshotImages int
}

// WorkerCPU is the CPU time a worker charged, by the runtime component that
// charged it (the §4 overhead experiment), published under "worker.cpu.".
// Each field is the sum of the ctx.Work charges of its component.
type WorkerCPU struct {
	EventDeserialization     time.Duration
	ObjectConstruction       time.Duration
	SplittingInstrumentation time.Duration
	FunctionExecution        time.Duration
	TxnValidation            time.Duration
	StateSerialization       time.Duration
	TxnCommit                time.Duration
	SnapshotPersistence      time.Duration
}

func newWorker(sys *System, ex *core.Executor, idx int) *Worker {
	return &Worker{
		sys:          sys,
		ex:           ex,
		id:           workerID(sys.prefix, idx),
		idx:          idx,
		committed:    state.NewStore(sys.prog.Layouts()),
		epochs:       map[int64]*workerEpoch{},
		appliedEpoch: -1,
		buffered:     map[int64][]msgTxnEvent{},
	}
}

func workerID(prefix string, idx int) string { return fmt.Sprintf("%sworker-%d", prefix, idx) }

// liveEpoch returns (creating if needed) the execution state of the epoch
// a coordination message belongs to, advanced to the message's round — or
// nil when the message is stale: from a settled epoch, a batch discarded by
// recovery, or the finished batch round of a live epoch. A delayed or
// duplicated copy must be dropped, not processed: a stale decide would wipe
// the in-flight workspaces of the next epoch or round, tearing any split
// transaction already running. (An event from a discarded epoch above the
// high-water mark can slip through and execute; its workspace is garbage
// that no decide order will ever reference, and its root response carries
// the old epoch or round, which the coordinator rejects.)
func (w *Worker) liveEpoch(epoch int64, round int) *workerEpoch {
	ep, stale := w.reached(epoch, round)
	if ep == nil && !stale {
		if n := len(w.free); n > 0 {
			ep, w.free = w.free[n-1], w.free[:n-1]
		} else {
			ep = &workerEpoch{}
		}
		ep.round = round
		w.epochs[epoch] = ep
	}
	return ep
}

// retire moves a settled epoch's state to the free list, emptied: its
// workspaces are installed or dropped, so they go to the pool, and its chain
// — parked events included — is over.
func (w *Worker) retire(epoch int64) {
	ep := w.epochs[epoch]
	delete(w.epochs, epoch)
	if ep != nil {
		w.recycle(ep)
		ep.kept.empty()
		ep.round, ep.plan, ep.chain = 0, nil, nil
		w.free = append(w.free, ep)
	}
}

// recycle empties ep's workspaces into the pool.
func (w *Worker) recycle(ep *workerEpoch) {
	for _, tw := range ep.workspaces {
		w.pool(tw)
	}
	clear(ep.workspaces)
}

// pool takes back a txnWork whose round is over, zeroed: a pooled one keeps
// no row, value or committed store alive (a recovery replaces the store).
func (w *Worker) pool(tw *txnWork) {
	*tw = txnWork{}
	w.works = append(w.works, tw)
}

// reached is liveEpoch for the messages every worker gets, reached by the
// batch or not: it creates nothing, so ep is nil both for a stale message
// and for a live epoch none of whose events ran here.
func (w *Worker) reached(epoch int64, round int) (ep *workerEpoch, stale bool) {
	if epoch <= w.appliedEpoch {
		return nil, true
	}
	ep = w.epochs[epoch]
	if ep == nil {
		return nil, false
	}
	if round < ep.round {
		return nil, true
	}
	ep.round = round
	return ep, false
}

// OnMessage implements sim.Handler.
func (w *Worker) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	switch m := msg.(type) {
	case msgTxnEvent:
		w.onTxnEvent(ctx, m)
	case *msgDecide:
		w.onDecide(ctx, m)
	case msgChainRelease:
		w.onChainRelease(ctx, m)
	case msgTakeSnapshot:
		w.onSnapshot(ctx, m)
	case msgRecover:
		w.onRecover(ctx, m)
	}
}

// workspace returns tid's txnWork in ep, opening one — from the pool when it
// has one — on the transaction's first event here.
func (w *Worker) workspace(ep *workerEpoch, tid aria.TID) *txnWork {
	tw, ok := ep.workspaces[tid]
	if !ok {
		if ep.workspaces == nil {
			ep.workspaces = map[aria.TID]*txnWork{}
		}
		if n := len(w.works); n > 0 {
			tw, w.works = w.works[n-1], w.works[:n-1]
		} else {
			tw = new(txnWork)
		}
		tw.ws.Open(tid, w.committed)
		ep.workspaces[tid] = tw
	}
	return tw
}

// onTxnEvent executes one dataflow event of a transaction on this
// partition, charging the cost-model CPU components, and forwards the
// produced event — in round 0 with this worker's reservation set added to
// the ones it arrived with. Events a pipelined coordinator dispatched ahead
// of their predecessor epoch's final decide are buffered, not executed: the
// committed store they would read is not yet the serializable prefix.
func (w *Worker) onTxnEvent(ctx *sim.Context, m msgTxnEvent) {
	if m.Epoch > w.appliedEpoch+1 {
		w.buffer(m)
		return
	}
	if m.Round == readRound {
		w.onRead(ctx, m)
		return
	}
	ep := w.liveEpoch(m.Epoch, m.Round)
	if ep == nil {
		return
	}
	member := -1 // the transaction's position in the epoch's chain, if it runs one
	if ep.plan != nil && m.Round > 0 {
		if member = w.admitChained(ctx, ep, m); member < 0 {
			return // parked behind a lower TID, or not the chain's
		}
	}
	costs := w.sys.cfg.Costs
	tw := w.workspace(ep, m.TID)
	ev := w.execute(ctx, m.txnEvent, &tw.ws)
	var sets *rwSets
	if m.Round == 0 {
		sets = w.shipSets(ctx, m.Sets, tw)
	}
	if ev.Kind == core.EvResponse {
		m.answer(ev, sets)
		ctx.Send(w.sys.coordID, msgTxnFinished(m), costs.WorkerLink.Sample(ctx.Rand()))
		if member >= 0 {
			w.finishChained(ctx, ep, m.Epoch, member, ev.Err == "")
		}
		return
	}
	target := w.sys.ownerOf(ev.Target)
	lat := costs.WorkerLink.Sample(ctx.Rand())
	if target == w.id {
		lat = 0 // same-partition transfer stays in process
	}
	m.forward(ev, sets)
	ctx.Send(target, m, lat)
}

// shipSets returns the reservation sets a round-0 event leaving this worker
// carries: the ones it arrived with, plus this worker's own the first time
// the call chain leaves here, in the node tw keeps for it. With the fallback
// phase on, each set shipped is priced: serializing the footprint a conflict
// abort queues on is work the legacy protocol never paid.
func (w *Worker) shipSets(ctx *sim.Context, in *rwSets, tw *txnWork) *rwSets {
	for s := in; s != nil; s = s.next {
		if s == &tw.sets {
			return in
		}
	}
	if cpu := w.sys.cfg.Costs.FallbackCPU; !w.sys.cfg.DisableFallback {
		ctx.Work(cpu)
		w.CPU.TxnValidation += cpu
	}
	tw.sets = rwSets{rw: &tw.ws.RW, next: in}
	return &tw.sets
}

// execute runs the event body b carries against store, charging the
// cost-model CPU components, and returns the event it produces; a root
// invocation builds its call chain's context where b.ctx points. An internal
// execution fault finishes the call with an error.
func (w *Worker) execute(ctx *sim.Context, b *txnEvent, store core.Store) core.Event {
	ev := b.Ev
	costs := w.sys.cfg.Costs

	// Event deserialization.
	ctx.Work(costs.DeserializeCPU)
	w.CPU.EventDeserialization += costs.DeserializeCPU

	// Object construction: the entity is rebuilt from operator state
	// (§2.3 "the system reconstructs the object using the operator's code
	// and the function's state").
	stBytes := w.committed.EncodedSize(ev.Target)
	construct := costs.ConstructCPU + costs.StateCPU(stBytes)
	ctx.Work(construct)
	w.CPU.ObjectConstruction += construct

	// Program-transformation (function splitting) instrumentation: the
	// state-machine bookkeeping added by the compiler. Deliberately tiny
	// (§4: "less than 1% of the total overhead").
	ctx.Work(costs.SplitOverhead)
	w.CPU.SplittingInstrumentation += costs.SplitOverhead

	out, err := w.ex.StepIn(ev, store, b.ctx)
	ctx.Work(costs.ExecuteCPU)
	w.CPU.FunctionExecution += costs.ExecuteCPU
	if err != nil {
		out = core.Event{Kind: core.EvResponse, Err: err.Error()}
	}
	return out
}

// onRead serves a fast read (read.go): a read-only simple call, run against
// the committed store with no workspace or reservation, at an epoch
// boundary no earlier than its stamp (the buffered gate in onTxnEvent held
// it until then). While the next epoch's chain is installing — its batch decide
// installed round 0, its final decide has not come — the store is between
// two cuts and may lack a chained member whose response already left, so
// the read waits in the buffered gate for that final decide, like an event
// of the epoch after it. The answer, the read's own body (msgTxnEvent),
// reports the applied epoch, the cut the read saw; the coordinator releases
// it once that epoch's responses are durable.
func (w *Worker) onRead(ctx *sim.Context, m msgTxnEvent) {
	if ep := w.epochs[w.appliedEpoch+1]; ep != nil && ep.plan != nil {
		m.Epoch = w.appliedEpoch + 2
		w.buffer(m)
		return
	}
	m.answer(w.execute(ctx, m.txnEvent, committedView{w.committed}), nil)
	m.Epoch = w.appliedEpoch
	ctx.Send(w.sys.coordID, msgTxnFinished(m), w.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// committedView is the committed store as the executor sees it during a fast
// read. Nothing creates an entity there: a read-only method constructs
// nothing.
type committedView struct{ s *state.Store }

// Lookup implements core.Store.
func (v committedView) Lookup(ref interp.EntityRef) (interp.State, bool) {
	row, ok := v.s.Lookup(ref)
	if !ok {
		return nil, false
	}
	return row, true
}

// Create implements core.Store.
func (committedView) Create(ref interp.EntityRef, _ func(interp.State) error) error {
	return fmt.Errorf("stateflow: a read-only call tried to create %s", ref)
}

// admitChained gates one event of a chained re-execution: it may run only
// when its transaction heads the target entity's queue, so it reads exactly
// what every lower-TID member queued on that entity left behind. Returns the
// transaction's chain position, or -1 when the event must not run: now — it
// parks until the releases ahead of it arrive (see settleChained) — or ever,
// because its target is not in the member's queued footprint. That is the
// chain's one drift rule, and isolation rests on it: nobody ordered the
// member against the others on that entity, so the member leaves the chain
// (see driftChained).
func (w *Worker) admitChained(ctx *sim.Context, ep *workerEpoch, m msgTxnEvent) (member int) {
	member, ok := ep.plan.Pos(m.TID)
	if !ok {
		return -1
	}
	e := ep.plan.Entity(member, m.Ev.Target)
	if e < 0 {
		w.driftChained(ctx, ep, m, member)
		return -1
	}
	ch := ep.progress()
	if ch.Head(e) != member {
		if len(ch.parked) == 0 {
			n := len(ep.plan.Members)
			ch.parked = slices.Grow(ch.parked, n)[:n]
			clear(ch.parked)
		}
		ch.parked[member] = parkedEvent{msgTxnEvent: m, e: e, at: ctx.Now()}
		return -1
	}
	arrived := ctx.Now()
	if len(ch.parked) > 0 && ch.parked[member].txnEvent != nil {
		arrived = ch.parked[member].at
		ch.parked[member] = parkedEvent{}
	}
	if tr := w.sys.cfg.Tracer; tr.Enabled() && m.Ev.Hops == 0 {
		// The member's first execution: how long its root event waited at
		// its owner for the lower TIDs queued on the same entity.
		tr.Span(w.id, "txn", "chain.wait", arrived, ctx.Now(), "req", m.Ev.Req,
			"tid", strconv.FormatInt(int64(m.TID), 10), "epoch", strconv.FormatInt(m.Epoch, 10))
	}
	return member
}

// driftChained takes a chain member whose event m reached an entity outside
// its queued footprint out of the chain: the event does not run, every owner
// of the footprint drops the member's workspace and lets its successors by,
// and the coordinator is told to retry it in the next batch.
func (w *Worker) driftChained(ctx *sim.Context, ep *workerEpoch, m msgTxnEvent, member int) {
	if f := w.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), w.id, "fallback.drift", "epoch %d: transaction %d reached %s, outside its queued footprint",
			m.Epoch, m.TID, m.Ev.Target)
	}
	ctx.Send(w.sys.coordID, msgChainRelease{Epoch: m.Epoch, TID: m.TID},
		w.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	w.finishChained(ctx, ep, m.Epoch, member, false)
}

// finishChained runs where a chain member's root response was produced (or
// its drift noticed): the member is done, so every owner of its footprint may
// settle it. The other owners learn it from one release each; this worker
// settles it here.
func (w *Worker) finishChained(ctx *sim.Context, ep *workerEpoch, epoch int64, member int, commit bool) {
	var release sim.Message // boxed once for all receivers
	var told [4]string
	sent := told[:0]
	for _, e := range ep.plan.Footprint(member) {
		owner := w.sys.ownerOf(ep.plan.Refs[e])
		if owner == w.id || slices.Contains(sent, owner) {
			continue
		}
		if release == nil {
			release = msgChainRelease{Epoch: epoch, TID: ep.plan.Members[member], Commit: commit}
		}
		sent = append(sent, owner)
		ctx.Send(owner, release, w.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
	w.settleChained(ctx, ep, member, commit)
}

// onChainRelease settles a chain member that finished on another worker. A
// copy that arrives after the epoch's final decide finds the epoch gone (the
// decide installed whatever was still in flight) and is dropped.
func (w *Worker) onChainRelease(ctx *sim.Context, m msgChainRelease) {
	ep := w.liveEpoch(m.Epoch, 1)
	if ep == nil || ep.plan == nil {
		return
	}
	if member, ok := ep.plan.Pos(m.TID); ok {
		w.settleChained(ctx, ep, member, m.Commit)
	}
}

// settleChained settles a finished chain member on this worker: its
// workspace is installed (or, on an application error or a drift, dropped),
// it leaves every queue it is in — from wherever it stands — and whatever was
// parked directly behind it runs. A repeated release is a no-op.
func (w *Worker) settleChained(ctx *sim.Context, ep *workerEpoch, member int, commit bool) {
	ch := ep.progress()
	if !ch.Release(member) {
		return
	}
	tid := ep.plan.Members[member]
	if tw, ok := ep.workspaces[tid]; ok {
		if commit {
			w.install(ctx, &tw.ws)
		}
		delete(ep.workspaces, tid)
		w.pool(tw)
	}
	if len(ch.parked) == 0 {
		return
	}
	for _, e := range ep.plan.Footprint(member) {
		if next := ch.Head(e); next >= 0 && ch.parked[next].txnEvent != nil && ch.parked[next].e == e {
			w.onTxnEvent(ctx, ch.parked[next].msgTxnEvent) // unparks itself on admission
		}
	}
}

// installApply installs the rows of a global apply this worker owns,
// charging the same commit work a workspace install does. Each row is
// cloned on the way in: the entry's row belongs to the logged record, which
// a binding replay installs again, while the committed store's row is
// updated in place by later transactions.
func (w *Worker) installApply(ctx *sim.Context, a *globalApply) {
	bytes, owned := 0, false
	for _, e := range a.writes {
		if w.sys.ownerOf(e.Ref) == w.id {
			w.committed.Put(e.Ref, e.St.Clone())
			bytes += e.St.EncodedSize()
			owned = true
		}
	}
	if owned {
		w.commitWork(ctx, bytes)
	}
}

// install applies one committed workspace to the store, charging the
// cost-model commit work.
func (w *Worker) install(ctx *sim.Context, ws *aria.Workspace) {
	w.commitWork(ctx, ws.WriteBytes())
	ws.Apply(w.committed)
}

// commitWork charges and counts one transaction's install of bytes of rows.
func (w *Worker) commitWork(ctx *sim.Context, bytes int) {
	costs := w.sys.cfg.Costs
	ctx.Work(costs.CommitCPU + costs.StateCPU(bytes))
	w.CPU.StateSerialization += costs.StateCPU(bytes)
	w.CPU.TxnCommit += costs.CommitCPU
	w.Applied++
}

// onDecide applies committed workspaces in TID order and discards the
// rest, then installs the decide's global apply, the batch's last member. A
// batch decide that is not final carries the chain plan the epoch's
// re-executions run gated by. A final decide settles the epoch: the applied
// high-water mark advances and any buffered successor-epoch events execute
// now, against exactly the committed prefix they were waiting for. (The
// final decide of a chain finds only the workspaces whose release is still
// in flight; the releases installed the rest.)
func (w *Worker) onDecide(ctx *sim.Context, m *msgDecide) {
	ep, stale := w.reached(m.Epoch, m.Round)
	if stale {
		return
	}
	if ep != nil {
		for _, tid := range m.Order {
			if _, dropped := slices.BinarySearch(m.Aborts, tid); dropped {
				continue
			}
			if tw, ok := ep.workspaces[tid]; ok {
				w.install(ctx, &tw.ws)
			}
		}
	}
	if m.Apply != nil {
		w.installApply(ctx, m.Apply)
	}
	if m.Final {
		w.retire(m.Epoch)
		w.appliedEpoch = m.Epoch
	} else {
		// Made here if no event of the batch ran on this worker: the chain's
		// events may, and they must find its plan.
		ep = w.liveEpoch(m.Epoch, m.Round)
		w.recycle(ep)
		ep.plan = m.Chain
	}
	ctx.Send(w.sys.coordID, msgApplied{m}, w.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	if m.Final {
		w.releaseBuffered(ctx, m.Epoch+1)
	}
}

// buffer holds m until its epoch's predecessor applies here, in the spare
// list when the epoch holds none yet.
func (w *Worker) buffer(m msgTxnEvent) {
	evs, ok := w.buffered[m.Epoch]
	if !ok {
		evs, w.spare = w.spare, nil
	}
	w.buffered[m.Epoch] = append(evs, m)
}

// releaseBuffered re-dispatches the events an epoch parked while its
// predecessor was committing; they pass the gate now that the high-water
// mark advanced. Their list, emptied, is the next spare: it holds no event.
func (w *Worker) releaseBuffered(ctx *sim.Context, epoch int64) {
	evs, ok := w.buffered[epoch]
	if !ok {
		return
	}
	delete(w.buffered, epoch)
	for _, m := range evs {
		w.onTxnEvent(ctx, m)
	}
	clear(evs)
	w.spare = evs[:0]
}

// onSnapshot persists the committed store to the snapshot store.
func (w *Worker) onSnapshot(ctx *sim.Context, m msgTakeSnapshot) {
	if m.Epoch < w.appliedEpoch {
		// Stale snapshot request: the aligned cut it belonged to is over
		// (recovery's view change bumped the epoch past it). Writing the
		// *current* store into the old snapshot id would mix state from
		// two different cuts into one "complete" snapshot. (Equal is
		// current: the cut is taken right after the epoch's final decide
		// applied, and the successor cannot commit past it — it is stuck
		// behind the snapshot in the coordinator's commit slot.)
		return
	}
	costs := w.sys.cfg.Costs
	// The store is encoded once, into the buffer the snapshot keeps.
	n, err := w.sys.Snapshots.WriteStore(m.ID, w.id, w.committed)
	work := costs.StateCPU(n)
	ctx.Work(work)
	w.CPU.SnapshotPersistence += work
	if err == nil {
		ctx.Send(w.sys.coordID, msgSnapshotDone{ID: m.ID},
			costs.WorkerLink.Sample(ctx.Rand()))
	}
}

// onRecover rolls the worker back to a snapshot image (or empty state),
// dropping every in-flight workspace and buffered event. The dropped
// workspaces do not go to the pool: events of their epochs may still be in
// flight (see msgTxnEvent).
func (w *Worker) onRecover(ctx *sim.Context, m msgRecover) {
	if m.Epoch < w.appliedEpoch {
		// Stale recover: a copy arriving after the system moved past that
		// recovery (any later batch or recovery bumped the epoch) must
		// not wipe the worker.
		return
	}
	if m.Epoch == w.appliedEpoch {
		// Wire duplicate of the round this worker already restored. The
		// restore is NOT idempotent by now: the post-recovery epoch may
		// already be executing in the workspaces, and re-wiping them would
		// silently drop its writes at apply (the decide skips missing
		// workspaces). Re-ack only — the original ack may be the copy the
		// network lost.
		ctx.Send(w.sys.coordID, msgRecovered{SnapshotID: m.SnapshotID, Epoch: m.Epoch},
			w.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		return
	}
	costs := w.sys.cfg.Costs
	w.epochs = map[int64]*workerEpoch{}
	w.buffered = map[int64][]msgTxnEvent{}
	w.appliedEpoch = m.Epoch
	if m.SnapshotID == 0 {
		w.committed = state.NewStore(w.sys.prog.Layouts())
	} else {
		st, err := w.sys.Snapshots.RestoreStore(m.SnapshotID, w.id)
		if err != nil {
			w.CorruptSnapshotImages++
			if f := w.sys.cfg.Flight; f.Enabled() {
				f.Recordf(ctx.Now(), w.id, "corrupt",
					"snapshot %d: image undecodable, restored empty: %v", m.SnapshotID, err)
			}
			st = state.NewStore(w.sys.prog.Layouts())
		}
		w.committed = st
	}
	ctx.Work(costs.StateCPU(w.committed.TotalEncodedSize()))
	ctx.Send(w.sys.coordID, msgRecovered{SnapshotID: m.SnapshotID, Epoch: m.Epoch},
		costs.WorkerLink.Sample(ctx.Rand()))
}

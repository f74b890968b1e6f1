// The global sequencer: the Calvin-style layer in front of the shard ring
// (sharded.go) that runs every transaction the single-shard fast path
// cannot take as a member of a fenced global batch:
//
//	seq    = next global batch id (all queued globals join the batch)
//	fence  = the batch's footprint shards quiesce and park (durable
//	         marker, fence.go); shards outside the footprint keep
//	         executing and committing their own epochs concurrently
//	admit  = each fence ack says which of the batch transactions homed
//	         on that shard its journal already answered; the sequencer
//	         drops those — retries — and hands each to its home shard's
//	         ingress, which re-serves the recorded response
//	read   = each fence carries the entities the shard owns that the batch
//	         reads, and the ack carries their committed rows back, shared,
//	         not copied: a parked shard replaces rows but never writes one
//	         in place (Calvin's participants push their local reads once
//	         they hold their locks; here the park is the lock)
//	exec   = the sequencer runs the batch serially against an overlay
//	         store of those rows, copying a row before the batch first
//	         writes it, so no write reaches a parked worker's row; an
//	         execution that reaches an entity no ack answered re-sends the
//	         owner's fence with the longer read list — fencing the shard
//	         first if the footprint grows — and re-executes from scratch
//	         once the rows arrive
//	apply  = each footprint shard that has writes or is home to a batch
//	         transaction gets ONE globalApply — its final entity images,
//	         pointing at the batch's one manifest (records.go) — logged
//	         and committed as the last member of an ordinary epoch, whose
//	         decide installs the rows (the shard-local atomic commit point)
//	reply  = each transaction's home shard releases its response with
//	         the group commit of its own apply — the batch's only
//	         release; the sequencer sends no client response
//	unfence= footprint shards resume; parked single-shard arrivals drain
//	         after the global writes, completing the deterministic order
//
// Scoped fencing is serializable for the same reason strict two-phase
// locking is: the sequencer runs one global batch at a time, a fence is
// an exclusive lock on a whole shard held until the batch's writes are
// durable, and growth only ever acquires — never releases — mid-batch.
// Config.FullFences restores the historical fence-everything schedule;
// the differential test pins both schedules byte-identical on
// transcripts and committed state.
//
// A batch is one phase table over its ring-position parts (shardPart): each
// part says whether the phase in flight still waits on that shard, and one
// rule (owed) says what the phase owes a part that has not answered — its
// fence with the current lists, its apply under the current ballot, or its
// unfence. Entering a phase sends it to every part, the stall timer
// (msgSeqTick, value-free) re-sends it to every part still waiting, and each
// ack clears its part's wait; the phase ends when no part waits (settle).
// Every loop walks the footprint, so messages leave in ring order.
//
// The sequencer keeps no durable state, but it is crashable: every
// global batch's recovery record (the manifest each logged apply points
// at) and the fence window itself live in the shards' durable logs, so a
// rebooted sequencer re-derives the in-flight batch from per-shard fence
// state and either rolls it forward or abandons it — see failover.go.
package stateflow

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// gPhase is a global batch's protocol phase. What it owes a footprint shard
// is in Sequencer.owed, what follows it in Sequencer.settle.
type gPhase int

const (
	gFencing gPhase = iota
	gExecuting
	gApplying
	gUnfencing
)

// msgSeqTick is the sequencer's one stall timer: while a batch is in
// flight it periodically re-sends whatever messages the current phase is
// still waiting on (fences, applies, unfences), and while a rebooted
// sequencer recovers it re-queries the shards that have not reported, so
// any single loss or shard crash-recovery converges. It carries nothing:
// the sequencer keeps the deadline of the last one it armed (tickAt), and a
// tick that fires before it — armed for a batch since closed, or by an
// incarnation since crashed — is an orphan and is dropped.
type msgSeqTick struct{}

// globalTxn is one client transaction riding a global batch.
type globalTxn struct {
	req     sysapi.Request
	replyTo string
	res     sysapi.Response
	home    int // ring position of the shard owning req.Target
}

// globalBatch is the global batch in flight. The sequencer keeps one
// (Sequencer.slot) and every batch reuses it, as a coordinator reuses its
// epoch slots: closeBatch empties it — lists truncated, maps and overlay
// cleared, no reference to the batch's rows or ids kept — and the next batch
// or roll-forward takes it. A failover drops it (OnRestart): nothing a dead
// incarnation touched is reused. What is durable or shared never lives in
// the slot: the manifest with its footprint, transactions, applies and write
// rows is allocated per batch and immutable, because the shards' source logs
// and failover reports hold it by pointer.
type globalBatch struct {
	seq int64
	// txns are the batch's members; their storage and the queue's swap
	// (startBatch), so neither is reallocated per batch.
	txns  []globalTxn
	phase gPhase
	// openedAt/phaseAt time the whole batch and the current protocol
	// phase (trace-span bounds). Purely observational.
	openedAt time.Duration
	phaseAt  time.Duration

	// footprint is the ring positions of the shards this batch fences, in
	// ring order: seeded from the transactions' statically known refs,
	// grown by executions that reach an entity on a new shard. Shards
	// outside it never see the batch. parts holds the batch's business with
	// each shard, indexed by ring position.
	footprint []int
	parts     []shardPart
	// known collects the ids the shards' fence acks reported already
	// answered.
	known map[string]bool

	// rederived marks a batch rebuilt from a durable manifest after a
	// sequencer failover (failover.go); it does not count toward the
	// scoped/full fence-schedule stats.
	rederived bool

	next int // index of the transaction currently executing
	// overlay holds the batch's view of the footprint as rows: the images
	// the fence acks carried — the parked workers' own rows, read-only —
	// then the batch's copies of those it wrote. fetched marks the entities
	// an ack has answered for (an entity that does not exist is fetched but
	// has no overlay row). dirty holds every entity the batch wrote, each
	// with a row of the batch's own in the overlay (execute copies it before
	// the first write), mapped to whether a write changed its encoding: the
	// true ones are the apply write-sets.
	overlay *state.Store
	fetched map[interp.EntityRef]bool
	dirty   map[interp.EntityRef]bool

	// recon is the store every execution attempt runs against, reopened
	// per attempt; refs is sortedRefs' buffer.
	recon reconStore
	refs  []interp.EntityRef

	// man is the batch's manifest once execution is done (beginApply, or
	// a failover's rederiveBatch).
	man *batchManifest
}

// shardPart is a global batch's business with one shard of the ring. admit
// and reads are the lists the shard's fence carries: the ids of the batch
// transactions homed there, in batch order, and the entities it owns that
// the batch reads, in the order they were needed. apply is the shard's
// slice of the manifest. waits says the phase in flight still waits on the
// shard's answer; acked that the shard answered the batch's fence once
// (FenceWaits counts the first answer). rows and home are beginApply's
// count of the shard's write rows and whether it is home to a member.
//
// The lists live in the slot and the next batch overwrites them, while a
// msgFence carries them by value, sharing their storage. That is safe: a
// shard reads a fence's Admit and Reads only while it is parked on the
// fence's seq, and the slot is reused only once every footprint shard acked
// the batch's unfence — after logging the closed marker, so a stale copy of
// the fence finds the seq at or below the shard's fenceDone and is answered
// bare (Coordinator.onFence), even across a shard restart.
type shardPart struct {
	admit []string
	reads []interp.EntityRef
	apply *globalApply

	waits, acked bool
	rows         int
	home         bool
}

// clear empties the slot once its batch closed, keeping the storage of its
// lists and maps for the next batch.
func (b *globalBatch) clear() {
	for i := range b.parts {
		p := &b.parts[i]
		clear(p.admit)
		clear(p.reads)
		*p = shardPart{admit: p.admit[:0], reads: p.reads[:0]}
	}
	clear(b.txns[:cap(b.txns)])
	clear(b.refs)
	b.txns, b.footprint, b.refs = b.txns[:0], b.footprint[:0], b.refs[:0]
	clear(b.known)
	clear(b.fetched)
	clear(b.dirty)
	clear(b.recon.missing)
	b.overlay.Clear()
	b.recon.ws = aria.Workspace{}
	b.seq, b.phase, b.rederived, b.next, b.man = 0, gFencing, false, 0, nil
}

// SequencerStats are the sequencing layer's canonical counters, exported
// as typed fields (mirroring the coordinator/dlog pattern) and published
// through RegisterMetrics.
type SequencerStats struct {
	// SingleShard counts fast-path forwards; GlobalTxns transactions
	// sequenced through global batches; GlobalBatches fence windows.
	// KnownRetries counts batch members dropped under the fence because
	// their home shard had already answered them (retries, handed to that
	// shard to re-serve) — they are not sequenced and not in GlobalTxns.
	SingleShard   int
	GlobalTxns    int
	GlobalBatches int
	KnownRetries  int
	// ScopedFences counts completed batches that fenced a strict subset
	// of the shard ring; FullFences those that fenced every shard
	// (forced by Config.FullFences or a footprint that grew to cover the
	// ring). Failover-synthesized batches count toward neither.
	ScopedFences int
	FullFences   int
	// FenceWaits counts per-shard fence acknowledgements awaited across
	// all batches (the fences the scoped schedule saves show up here).
	FenceWaits int
	// Failovers counts sequencer reboots; RederivedBatches in-flight
	// batches rolled forward from a durable manifest after one;
	// AbortedBatches fenced-but-uncommitted batches a failover released.
	Failovers        int
	RederivedBatches int
	AbortedBatches   int
}

// Sequencer is the Calvin-style global sequencing layer: it routes
// single-shard transactions straight to their shard and runs everything
// else through fenced global batches. Its working state is volatile; its
// recovery state lives in the shards (see failover.go and the package
// comment).
type Sequencer struct {
	sys *ShardedSystem

	nextSeq  int64
	queue    []globalTxn
	inFlight map[string]bool // global req ids queued or in the current batch
	// cur is the batch in flight, nil while idle; it lives in slot, which
	// every batch of this incarnation reuses (globalBatch).
	cur  *globalBatch
	slot *globalBatch

	// recovering is true from reboot until every shard reported its
	// fence state; reports holds those reports by ring position (nil: not
	// reported yet).
	recovering bool
	reports    []*msgSeqFenceReport
	// tickAt is the deadline of the stall timer last armed (armTick).
	tickAt time.Duration
	// ballot identifies this incarnation to the shards: its reboot instant,
	// 0 for the first (failover.go).
	ballot int64

	SequencerStats
}

// Stats snapshots the sequencing layer's counters.
func (q *Sequencer) Stats() SequencerStats { return q.SequencerStats }

func newSequencer(sys *ShardedSystem) *Sequencer {
	return &Sequencer{
		sys:      sys,
		inFlight: map[string]bool{},
	}
}

// OnMessage implements sim.Handler.
func (q *Sequencer) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	switch m := msg.(type) {
	case sysapi.MsgRequest:
		q.onRequest(ctx, msg, m)
	case sysapi.MsgResponse:
		q.onApplyDone(ctx, from, m)
	case msgFenceAck:
		q.onFenceAck(ctx, from, m)
	case msgUnfenceAck:
		q.onUnfenceAck(ctx, from, m)
	case msgSeqTick:
		q.onTick(ctx)
	case msgSeqFenceReport:
		q.onFenceReport(ctx, from, m)
	}
}

// refsOf collects a request's statically known footprint: the receiver
// plus every entity-ref argument.
func refsOf(req sysapi.Request) []interp.EntityRef {
	return appendRefs(make([]interp.EntityRef, 0, 2), req) // a transfer's two stay on the caller's stack
}

// appendRefs appends refsOf(req) to buf.
func appendRefs(buf []interp.EntityRef, req sysapi.Request) []interp.EntityRef {
	buf = append(buf, req.Target)
	for _, a := range req.Args {
		if a.Kind == interp.KRef {
			buf = append(buf, a.R)
		}
	}
	return buf
}

// onRequest routes one client request: absorb a copy of one in flight,
// fast-path to a single shard, or enqueue as a global transaction. Whether
// a global id was answered before is not decided here — the sequencer keeps
// no record of what it sequenced — but by the id's home shard under the
// batch's fence (admitBatch). msg is m as delivered: the fast path forwards
// it as is, so it boxes the request into no new interface value.
func (q *Sequencer) onRequest(ctx *sim.Context, msg sim.Message, m sysapi.MsgRequest) {
	ctx.Work(q.sys.cfg.Costs.RoutingCPU)
	if q.inFlight[m.Request.Req] {
		return // retry of a queued or executing global transaction
	}
	refs := refsOf(m.Request)
	target := q.sys.ShardOf(refs[0])
	single := m.Request.Method == "__init__" ||
		q.sys.prog.RefClosed(m.Request.Target.Class, m.Request.Method)
	for _, r := range refs[1:] {
		if q.sys.ShardOf(r) != target {
			single = false
		}
	}
	if single {
		// Fast path: the footprint is provably confined to one shard.
		// Forward with the client's reply address — the shard answers
		// (and dedupes, and re-serves) exactly as an unsharded
		// deployment would; the sequencer keeps no record of it.
		q.SingleShard++
		ctx.Send(q.sys.shards[target].coordID, msg,
			q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		return
	}
	q.inFlight[m.Request.Req] = true
	q.queue = append(q.queue, globalTxn{req: m.Request, replyTo: m.ReplyTo, home: target})
	if q.cur == nil && !q.recovering {
		q.startBatch(ctx)
	}
}

// openBatch makes batch seq the one in flight in the sequencer's slot,
// which closeBatch left empty: a part for every shard of the ring and an
// empty footprint. The slot is made on first use, and again after a
// failover dropped it.
func (q *Sequencer) openBatch(ctx *sim.Context, seq int64) *globalBatch {
	b := q.slot
	if b == nil {
		b = &globalBatch{
			parts:   make([]shardPart, len(q.sys.shards)),
			known:   map[string]bool{},
			overlay: state.NewStore(q.sys.prog.Layouts()),
			fetched: map[interp.EntityRef]bool{},
			dirty:   map[interp.EntityRef]bool{},
		}
		b.recon = reconStore{fetched: b.fetched, missing: map[interp.EntityRef]bool{}}
		q.slot = b
	}
	b.seq, b.openedAt = seq, ctx.Now()
	q.cur = b
	return b
}

// fence adds shard idx to the footprint, keeping it in ring order, and
// reports whether it was outside. Every per-shard loop walks the footprint,
// so messages go out — and link delays come off the RNG — in ring order.
func (b *globalBatch) fence(idx int) bool {
	at, in := slices.BinarySearch(b.footprint, idx)
	if !in {
		b.footprint = slices.Insert(b.footprint, at, idx)
	}
	return !in
}

// startBatch opens the next fence window over every queued global
// transaction, fencing only the batch's shard footprint (every shard
// under Config.FullFences).
func (q *Sequencer) startBatch(ctx *sim.Context) {
	q.nextSeq++
	q.GlobalBatches++
	b := q.openBatch(ctx, q.nextSeq)
	b.txns, q.queue = q.queue, b.txns
	for i := range b.txns {
		t := &b.txns[i]
		home := &b.parts[t.home]
		home.admit = append(home.admit, t.req.Req)
		for _, ref := range refsOf(t.req) {
			idx := q.sys.ShardOf(ref)
			b.fence(idx)
			if p := &b.parts[idx]; !slices.Contains(p.reads, ref) {
				p.reads = append(p.reads, ref)
			}
		}
	}
	if q.sys.cfg.FullFences {
		for i := range q.sys.shards {
			b.fence(i)
		}
	}
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "global.batch",
			"batch %d opened with %d txns", b.seq, len(b.txns))
		f.Recordf(ctx.Now(), sequencerID, "fence.scope",
			"batch %d fences shards %v (%d of %d)",
			b.seq, b.footprint, len(b.footprint), len(q.sys.shards))
	}
	q.enter(ctx, b, gFencing)
	q.armTick(ctx)
}

// armTick arms the stall timer for one stall timeout from now. The timer
// it supersedes, if any, fires before the new deadline and is dropped.
func (q *Sequencer) armTick(ctx *sim.Context) {
	q.tickAt = ctx.Now() + q.sys.cfg.StallTimeout
	ctx.After(q.sys.cfg.StallTimeout, msgSeqTick{})
}

// owed is the phase table's one rule: what batch b's phase in flight owes
// footprint shard idx until the shard answers. Fencing and executing owe
// the fence with the part's current admission and read lists (either empty
// when the shard is home to no member, or owns nothing the batch reads),
// applying the part's apply under this incarnation's ballot, unfencing the
// unfence.
func (q *Sequencer) owed(b *globalBatch, idx int) sim.Message {
	switch p := &b.parts[idx]; b.phase {
	case gFencing, gExecuting:
		return msgFence{Seq: b.seq, Admit: p.admit, Reads: p.reads}
	case gApplying:
		return msgGlobalApply{Apply: p.apply, Ballot: q.ballot}
	}
	return msgUnfence{Seq: b.seq}
}

// resend sends every part of batch b that the phase in flight still waits
// on what the phase owes it, in ring order.
func (q *Sequencer) resend(ctx *sim.Context, b *globalBatch) {
	for _, idx := range b.footprint {
		if b.parts[idx].waits {
			ctx.Send(q.sys.shards[idx].coordID, q.owed(b, idx),
				q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
		}
	}
}

// enter moves batch b into phase ph, which waits on every footprint shard
// — when applying, on every shard that has an apply — and sends each what
// ph owes it.
func (q *Sequencer) enter(ctx *sim.Context, b *globalBatch, ph gPhase) {
	b.phase, b.phaseAt = ph, ctx.Now()
	for _, idx := range b.footprint {
		p := &b.parts[idx]
		p.waits = ph != gApplying || p.apply != nil
	}
	q.resend(ctx, b)
}

// settle records shard idx's answer to batch b's phase in flight and, once
// no part waits any longer, moves the batch on: a fenced batch admits its
// members and executes, an executed one applies (beginApply), an applied
// one unfences (finishBatch), an unfenced one closes.
func (q *Sequencer) settle(ctx *sim.Context, b *globalBatch, idx int) {
	b.parts[idx].waits = false
	for _, i := range b.footprint {
		if b.parts[i].waits {
			return
		}
	}
	switch b.phase {
	case gFencing:
		if tr := q.sys.cfg.Tracer; tr.Enabled() {
			tr.Span(sequencerID, "global", "fence.wait", b.phaseAt, ctx.Now(),
				"seq", strconv.FormatInt(b.seq, 10),
				"shards", strconv.Itoa(len(b.footprint)))
		}
		b.phase, b.phaseAt = gExecuting, ctx.Now()
		q.admitBatch(ctx, b)
		fallthrough
	case gExecuting:
		q.advance(ctx)
	case gApplying:
		q.finishBatch(ctx)
	default:
		q.closeBatch(ctx, b)
	}
}

// onFenceAck folds a footprint shard's answer to the batch's fence into
// the overlay; the part is answered once a row came back for every entity
// its read list names.
func (q *Sequencer) onFenceAck(ctx *sim.Context, from string, m msgFenceAck) {
	idx, ok := q.sys.shardOfCoord(from)
	if !ok || q.recovering {
		return
	}
	b := q.cur
	if b == nil || m.Seq != b.seq || !slices.Contains(b.footprint, idx) {
		q.maybeReleaseOrphan(ctx, from, m.Seq)
		return
	}
	p := &b.parts[idx]
	if b.phase > gExecuting || !slices.Equal(m.Admit, p.admit) {
		// Not an answer to this batch's fence: the park watchdog's bare
		// re-ack, the ack of a dead incarnation's fence for the same batch
		// id, or a late copy once the batch executed. The stall guard
		// re-fences whatever is still unanswered.
		return
	}
	// Any ack for this batch id was taken parked for it, so its rows are the
	// parked state whichever read list it answered; an entity the batch
	// already holds (and may have written over) is never replaced.
	for _, r := range m.Rows {
		if !b.fetched[r.Ref] {
			b.fetched[r.Ref] = true
			if r.St != nil {
				b.overlay.Put(r.Ref, r.St)
			}
		}
	}
	if !p.acked {
		p.acked = true
		q.FenceWaits++
		for i, id := range m.Admit {
			if m.Known[i] {
				b.known[id] = true
			}
		}
	}
	for _, ref := range p.reads {
		if !b.fetched[ref] {
			return
		}
	}
	q.settle(ctx, b, idx)
}

// admitBatch is the global path's ingress dedup, run once the whole
// footprint is parked: every member its home shard reported as already
// answered is a retry — it leaves the batch unexecuted and goes to that
// shard's ordinary ingress, where journal.admit re-serves the recorded
// response (or absorbs the copy, if the retention window pruned it). The
// verdicts were taken under the fence, so no member can be answered
// between its verdict and this batch's apply; what remains is sequenced.
// A batch emptied here applies nothing and unfences.
func (q *Sequencer) admitBatch(ctx *sim.Context, b *globalBatch) {
	kept := b.txns[:0]
	for _, t := range b.txns {
		if !b.known[t.req.Req] {
			kept = append(kept, t)
			continue
		}
		q.KnownRetries++
		delete(q.inFlight, t.req.Req)
		ctx.Send(q.sys.shards[t.home].coordID,
			sysapi.MsgRequest{Request: t.req, ReplyTo: t.replyTo},
			q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
	}
	b.txns = kept
	q.GlobalTxns += len(kept)
}

// maybeReleaseOrphan handles a fence ack that answers no footprint part
// of the batch in flight: a shard parked on a fence from a dead incarnation
// (the fence was in flight when the sequencer crashed, so no recovery
// report covered it), or whose unfence was lost past the batch's lifetime.
// Up to the batch in flight (the last one sequenced when none is) it is an
// orphan. The shard's park watchdog re-acks until someone reacts
// (fence.go); the reaction is an unfence, which the shard-side handler
// accepts for exactly the seq it is parked on.
func (q *Sequencer) maybeReleaseOrphan(ctx *sim.Context, from string, seq int64) {
	last := q.nextSeq
	if b := q.cur; b != nil {
		last = b.seq
	}
	if seq > last {
		return
	}
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "fence.orphan",
			"releasing %s from orphaned fence %d", from, seq)
	}
	ctx.Send(from, msgUnfence{Seq: seq}, q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
}

// advance executes batch transactions in order until one reaches entities
// no fence ack has answered for yet, or the batch is done. A miss appends
// the missing entities to their owners' read lists (fencing a shard outside
// the footprint first), so the phase waits on those shards again, and
// re-sends their fences; every other part has answered. The transaction
// re-executes from scratch once every answer is in (settle).
func (q *Sequencer) advance(ctx *sim.Context) {
	b := q.cur
	for ; b.next < len(b.txns); b.next++ {
		missing := q.execute(ctx, b, &b.txns[b.next])
		if len(missing) == 0 {
			continue
		}
		for _, ref := range missing {
			idx := q.sys.ShardOf(ref)
			p := &b.parts[idx]
			p.reads = append(p.reads, ref)
			p.waits = true
			if b.fence(idx) {
				if f := q.sys.cfg.Flight; f.Enabled() {
					f.Recordf(ctx.Now(), sequencerID, "fence.scope",
						"batch %d footprint grows to shard %d (%s<%s>)",
						b.seq, idx, ref.Class, ref.Key)
				}
			}
		}
		q.resend(ctx, b)
		return
	}
	q.beginApply(ctx)
}

// reconStore is the core.Store one execution attempt runs against: an
// Aria workspace over the batch overlay — the same private working rows
// the workers execute on — except that touching an entity no fence ack
// has answered for yet records a miss. The attempt is then void and
// re-executes from scratch once the row arrives; the workspace never
// hands out an overlay container by reference, so dropping it drops
// everything the attempt did. The batch's slot holds one, and each attempt
// reopens its workspace and empties its missing set.
type reconStore struct {
	ws      aria.Workspace
	fetched map[interp.EntityRef]bool
	missing map[interp.EntityRef]bool
}

// Lookup implements core.Store.
func (s *reconStore) Lookup(ref interp.EntityRef) (interp.State, bool) {
	if !s.fetched[ref] {
		s.missing[ref] = true
		return nil, false
	}
	return s.ws.Lookup(ref)
}

// Create implements core.Store.
func (s *reconStore) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	if !s.fetched[ref] {
		s.missing[ref] = true
		return fmt.Errorf("entity %s not fetched", ref)
	}
	return s.ws.Create(ref, ctor)
}

// execute runs one attempt of a global transaction. A non-empty return
// is the sorted set of footprint members the overlay is missing: the
// attempt's effects are void and it will re-run. Otherwise the result is
// recorded and — for error-free completions — the attempt's writes fold
// into the overlay (an application error commits nothing, matching the
// shard runtime's abort-on-error contract).
func (q *Sequencer) execute(ctx *sim.Context, b *globalBatch, t *globalTxn) []interp.EntityRef {
	store := &b.recon
	store.ws.Open(aria.TID(b.seq), b.overlay)
	clear(store.missing)
	out, steps, err := q.sys.ex.Drive(core.Event{
		Kind:   core.EvInvoke,
		Req:    t.req.Req,
		Target: t.req.Target,
		Method: t.req.Method,
		Args:   t.req.Args,
	}, store)
	// Every step is one execution's CPU on the sequencer.
	ctx.Work(time.Duration(steps) * q.sys.cfg.Costs.ExecuteCPU)
	res := sysapi.Response{Req: t.req.Req, Value: out.Value, Err: out.Err}
	if err != nil {
		res.Err = err.Error()
	}
	if len(store.missing) > 0 {
		b.refs = sortedRefs(b.refs[:0], store.missing)
		return b.refs
	}
	t.res = res
	if res.Err != "" {
		return nil
	}
	// A written entity joins the write-set if the transaction created it
	// (the overlay has no image of it) or wrote a slot value that encodes
	// differently from the overlay row's, which the attempt could not
	// mutate; a write that stored what was already there keeps the member
	// read-only and out of its shard's apply. Apply sets the written slots
	// into the overlay's rows in place, unchanged ones too, and until the
	// batch first writes an entity its row is the parked worker's own: it
	// is copied first.
	store.ws.Written(func(ref interp.EntityRef, changed bool) {
		if _, owned := b.dirty[ref]; !owned {
			if row, ok := b.overlay.Lookup(ref); ok {
				b.overlay.Put(ref, row.Clone())
			}
		}
		b.dirty[ref] = b.dirty[ref] || changed
	})
	store.ws.Apply(b.overlay)
	return nil
}

// sortedRefs appends the refs set maps to true to buf in class/key order.
// Every sequencer loop that sends messages (and samples link delays) per
// entity walks refs through here: Go map iteration order is randomized per
// run, and drawing RNG samples in map order would make same-seed runs
// diverge.
func sortedRefs(buf []interp.EntityRef, set map[interp.EntityRef]bool) []interp.EntityRef {
	for ref, in := range set {
		if in {
			buf = append(buf, ref)
		}
	}
	slices.SortFunc(buf, func(a, b interp.EntityRef) int {
		if c := strings.Compare(a.Class, b.Class); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	return buf
}

// beginApply freezes the batch into its manifest — one apply per involved
// shard, in ring order — and sends the applies. A shard is involved if
// the overlay dirtied entities it owns or if it is home to a batch
// transaction's target: home shards get an apply even with an empty
// write-set, because the manifest every apply points at is both the
// batch's durable recovery record (failover.go) and the home shard's order
// to release the transaction's response through its journal. The
// overlay rows go into the manifest as they are: they are the batch's own
// copies, and the batch has finished executing, so nothing writes them
// again. Everything else the manifest holds is copied out of the slot, and
// its applies and their rows take one allocation each.
func (q *Sequencer) beginApply(ctx *sim.Context) {
	b := q.cur
	if tr := q.sys.cfg.Tracer; tr.Enabled() {
		tr.Span(sequencerID, "global", "global.execute", b.phaseAt, ctx.Now(),
			"seq", strconv.FormatInt(b.seq, 10),
			"txns", strconv.Itoa(len(b.txns)))
	}
	b.refs = sortedRefs(b.refs[:0], b.dirty) // each shard's writes in class/key order
	for _, ref := range b.refs {
		b.parts[q.sys.ShardOf(ref)].rows++
	}
	man := &batchManifest{seq: b.seq, footprint: slices.Clone(b.footprint),
		txns: make([]manifestTxn, len(b.txns))}
	for i, t := range b.txns {
		b.parts[t.home].home = true // home to a member: applies even an empty write-set
		man.txns[i] = manifestTxn{req: t.req.Req, replyTo: t.replyTo, home: t.home, res: t.res}
	}
	n := 0
	for _, idx := range b.footprint {
		if p := &b.parts[idx]; p.rows > 0 || p.home {
			n++
		}
	}
	man.applies = make([]globalApply, 0, n)
	rows, at := make([]entityImage, len(b.refs)), 0
	for _, idx := range b.footprint {
		if p := &b.parts[idx]; p.rows > 0 || p.home {
			man.applies = append(man.applies, globalApply{id: applyID(b.seq, idx), shard: idx,
				writes: rows[at : at : at+p.rows], replyTo: sequencerID, man: man})
			p.apply = &man.applies[len(man.applies)-1]
			at += p.rows
		}
	}
	for _, ref := range b.refs {
		row, _ := b.overlay.Lookup(ref)
		a := b.parts[q.sys.ShardOf(ref)].apply
		a.writes = append(a.writes, entityImage{Ref: ref, St: row})
	}
	b.man = man
	if len(man.applies) == 0 {
		q.finishBatch(ctx)
		return
	}
	q.enter(ctx, b, gApplying)
}

// onApplyDone marks one shard's write-set durably committed (the shard
// releases the apply's response only after its group-commit fsync).
func (q *Sequencer) onApplyDone(ctx *sim.Context, from string, m sysapi.MsgResponse) {
	b := q.cur
	shard, ok := q.sys.shardOfCoord(from)
	if !ok || b == nil || b.phase != gApplying {
		return
	}
	if a := b.parts[shard].apply; a == nil || m.Response.Req != a.id {
		return
	}
	q.settle(ctx, b, shard)
}

// finishBatch unfences the footprint shards: every shard's write-set is
// durable — and with it every member's response, which its home shard
// released on that same group commit. The members stop being in flight, so
// a later copy of one opens a fence window of its own and is re-served.
func (q *Sequencer) finishBatch(ctx *sim.Context) {
	b := q.cur
	if b.phase == gApplying {
		if tr := q.sys.cfg.Tracer; tr.Enabled() {
			tr.Span(sequencerID, "global", "__apply__", b.phaseAt, ctx.Now(),
				"seq", strconv.FormatInt(b.seq, 10),
				"shards", strconv.Itoa(len(b.man.applies)))
		}
	}
	for _, mt := range b.man.txns {
		delete(q.inFlight, mt.req)
	}
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "global.unfence", "unfencing global batch %d", b.seq)
	}
	q.enter(ctx, b, gUnfencing)
}

// onUnfenceAck marks one footprint shard resumed.
func (q *Sequencer) onUnfenceAck(ctx *sim.Context, from string, m msgUnfenceAck) {
	idx, ok := q.sys.shardOfCoord(from)
	if !ok || q.recovering {
		return
	}
	b := q.cur
	if b == nil || b.phase != gUnfencing || m.Seq != b.seq {
		return
	}
	q.settle(ctx, b, idx)
}

// closeBatch retires a fully unfenced batch: record its fence-scope
// span and stats, empty the slot, then open the next batch in it if
// transactions queued up behind it.
func (q *Sequencer) closeBatch(ctx *sim.Context, b *globalBatch) {
	if tr := q.sys.cfg.Tracer; tr.Enabled() {
		tr.Span(sequencerID, "global", "unfence", b.phaseAt, ctx.Now(),
			"seq", strconv.FormatInt(b.seq, 10))
		tr.Span(sequencerID, "global", "fence.scope", b.openedAt, ctx.Now(),
			"seq", strconv.FormatInt(b.seq, 10),
			"shards", strconv.Itoa(len(b.footprint)),
			"of", strconv.Itoa(len(q.sys.shards)),
			"scoped", strconv.FormatBool(len(b.footprint) < len(q.sys.shards)))
	}
	if !b.rederived {
		if len(b.footprint) < len(q.sys.shards) {
			q.ScopedFences++
		} else {
			q.FullFences++
		}
	}
	if f := q.sys.cfg.Flight; f.Enabled() {
		f.Recordf(ctx.Now(), sequencerID, "global.batch",
			"batch %d complete", b.seq)
	}
	b.clear()
	q.cur = nil
	if len(q.queue) > 0 {
		q.startBatch(ctx)
	}
}

// onTick is the sequencer's stall guard: a recovering sequencer re-queries
// the shards that have not reported yet (the query or its report was lost,
// or the shard was itself mid-recovery); otherwise it re-sends what the
// current batch's phase still owes every part it waits on. Shard-side handlers are all
// idempotent (fence and unfence re-ack, applies dedupe or re-serve,
// queries re-report), so over-sending is safe; a shard mid-crash-recovery
// simply answers after its recovery converges, still fenced thanks to the
// durable marker. A tick before the armed deadline is an orphan (see
// msgSeqTick), and with nothing to wait on the timer stops until the next
// batch or reboot arms it.
func (q *Sequencer) onTick(ctx *sim.Context) {
	if ctx.Now() < q.tickAt {
		return
	}
	switch b := q.cur; {
	case q.recovering:
		for i, sh := range q.sys.shards {
			if q.reports[i] == nil {
				ctx.Send(sh.coordID, msgSeqFenceQuery{Ballot: q.ballot},
					q.sys.cfg.Costs.WorkerLink.Sample(ctx.Rand()))
			}
		}
	case b == nil:
		return
	default:
		q.resend(ctx, b)
	}
	q.armTick(ctx)
}

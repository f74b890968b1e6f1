package stateflow

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The sequencer's phase table, checked without seeds: each case opens one
// global batch on four shards that never hear from the sequencer — every
// message it sends a shard is recorded and dropped — feeds it the shards'
// answers by hand, and reads the table (the phase, which parts it waits on)
// and what the sequencer sent.

// spreaders is a register program whose global calls fence one to three
// shards: move and spread name their footprint in their arguments, pick
// also reaches a register its request does not name (cands[v % 2]).
const spreaders = `
@entity
class Reg:
    def __init__(self, key: str, v: int):
        self.key: str = key
        self.v: int = v

    def __key__(self) -> str:
        return self.key

    def add(self, d: int) -> int:
        self.v += d
        return self.v

    @transactional
    def move(self, d: int, to: Reg) -> int:
        self.v -= d
        return to.add(d)

    @transactional
    def spread(self, d: int, a: Reg, b: Reg) -> int:
        self.v -= d
        a.add(d)
        return b.add(d)

    @transactional
    def pick(self, d: int, also: Reg, cands: list[Reg]) -> int:
        also.add(d)
        to: Reg = cands[self.v % 2]
        return to.add(d)
`

// seqFixture is a 4-shard deployment of the spreaders whose sequencer talks
// to the test instead of the shards.
type seqFixture struct {
	t       *testing.T
	cluster *sim.Cluster
	sys     *ShardedSystem
	q       *Sequencer
	keys    [][]string // two registers homed on each shard, all at v = 0
	sent    []string   // what the sequencer sent the shards since the last took
	n       int        // requests submitted
}

func newSeqFixture(t *testing.T) *seqFixture {
	t.Helper()
	prog, err := compiler.Compile(spreaders)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 4
	cluster := sim.New(42)
	fx := &seqFixture{t: t, cluster: cluster, sys: New(cluster, prog, cfg), keys: make([][]string, cfg.Shards)}
	fx.q = fx.sys.Sequencer()
	for i := 0; slices.ContainsFunc(fx.keys, func(k []string) bool { return len(k) < 2 }); i++ {
		key := fmt.Sprintf("k%03d", i)
		if home := fx.sys.ShardOf(regRef(key)); len(fx.keys[home]) < 2 {
			fx.keys[home] = append(fx.keys[home], key)
			if err := fx.sys.PreloadEntity("Reg", interp.StrV(key), interp.IntV(0)); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
	}
	fx.sys.CheckpointPreloadedState()
	cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		idx, ok := fx.sys.shardOfCoord(to)
		if from != sequencerID || !ok {
			return sim.Perturb{}
		}
		return fx.drop(idx, msg)
	})
	cluster.Add("client", &rawClient{})
	cluster.Start()
	return fx
}

// drop records msg, sent by the sequencer to shard idx, and loses it.
func (fx *seqFixture) drop(idx int, msg sim.Message) sim.Perturb {
	kind := strings.TrimPrefix(fmt.Sprintf("%T", msg), "stateflow.msg")
	fx.sent = append(fx.sent, fmt.Sprintf("%s@%d", strings.ToLower(kind), idx))
	return sim.Perturb{Drop: true}
}

// ref is register i of shard idx.
func (fx *seqFixture) ref(idx, i int) interp.Value { return interp.RefV("Reg", fx.keys[idx][i]) }

// run lets one millisecond pass: long enough for the sequencer to handle
// what was delivered, far shorter than its stall timeout.
func (fx *seqFixture) run() { fx.cluster.RunUntil(fx.cluster.Now() + time.Millisecond) }

// submit sends the sequencer one call on register 0 of shard home.
func (fx *seqFixture) submit(home int, method string, args ...interp.Value) {
	fx.inject(home, method, args...)
	fx.run()
}

// inject is submit without letting time pass.
func (fx *seqFixture) inject(home int, method string, args ...interp.Value) {
	fx.n++
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), sysapi.MsgRequest{
		Request: sysapi.Request{Req: fmt.Sprintf("g%d", fx.n), Target: regRef(fx.keys[home][0]),
			Method: method, Args: args},
		ReplyTo: "client",
	})
}

// deliver hands the sequencer msg from shard idx's coordinator.
func (fx *seqFixture) deliver(idx int, msg sim.Message) {
	fx.cluster.Inject(fx.cluster.Now(), fx.sys.shards[idx].coordID, sequencerID, msg)
	fx.run()
}

// took returns what the sequencer sent since the last call, in send order.
func (fx *seqFixture) took() string {
	out := strings.Join(fx.sent, " ")
	fx.sent = nil
	return out
}

// fenceAnswer is shard idx's answer to the batch's current fence, as
// ackFence builds it: no member known, and the committed row of every
// entity the part's read list names.
func (fx *seqFixture) fenceAnswer(idx int) msgFenceAck {
	b := fx.q.cur
	p := &b.parts[idx]
	ack := msgFenceAck{Seq: b.seq, Admit: p.admit, Known: make([]bool, len(p.admit))}
	for _, ref := range p.reads {
		ack.Rows = append(ack.Rows, entityImage{Ref: ref, St: fx.committed(ref)})
	}
	return ack
}

// committed is the row ref's worker holds, nil if it holds none.
func (fx *seqFixture) committed(ref interp.EntityRef) *interp.Row {
	sh := fx.sys.shards[fx.sys.ShardOf(ref)]
	row, _ := sh.workers[sh.OwnerIndex(ref)].committed.Lookup(ref)
	return row
}

// applied is shard idx's acknowledgement of the batch's apply.
func (fx *seqFixture) applied(idx int) sim.Message {
	return sysapi.MsgResponse{Response: sysapi.Response{Req: applyID(fx.q.cur.seq, idx)}}
}

// unfenced is a shard's acknowledgement of the batch's unfence.
func (fx *seqFixture) unfenced() sim.Message { return msgUnfenceAck{Seq: fx.q.cur.seq} }

// expect fails unless the batch in flight is in phase ph, waits on exactly
// the parts waiting, and the sequencer sent exactly sent since the last
// check.
func (fx *seqFixture) expect(what string, ph gPhase, waiting []int, sent string) {
	fx.t.Helper()
	b := fx.q.cur
	if b == nil {
		fx.t.Fatalf("%s: no batch in flight", what)
	}
	var got []int
	for _, idx := range b.footprint {
		if b.parts[idx].waits {
			got = append(got, idx)
		}
	}
	if took := fx.took(); b.phase != ph || !slices.Equal(got, waiting) || took != sent {
		fx.t.Fatalf("%s: phase %d waiting on %v, sent %q; want phase %d waiting on %v, sent %q",
			what, b.phase, got, took, ph, waiting, sent)
	}
}

// applying runs a move from shard 0 to shard 2 through its fence: the
// batch is applying, and waits on both applies.
func (fx *seqFixture) applying() {
	fx.t.Helper()
	fx.submit(0, "move", interp.IntV(5), fx.ref(2, 0))
	fx.deliver(0, fx.fenceAnswer(0))
	fx.deliver(2, fx.fenceAnswer(2))
	fx.expect("fences answered", gApplying, []int{0, 2}, "fence@0 fence@2 globalapply@0 globalapply@2")
}

// TestSequencerTableFenceAnswers: a part is answered once a fence ack with
// its admission list brings a row for every entity its read list names. A
// bare re-ack counts the shard's fence wait but leaves the part waiting for
// its rows (a shard home to a member does not even count it: the lists
// differ); a duplicate answer counts nothing; the last answer executes the
// batch and sends its applies.
func TestSequencerTableFenceAnswers(t *testing.T) {
	fx := newSeqFixture(t)
	fx.submit(0, "move", interp.IntV(5), fx.ref(2, 0))
	b := fx.q.cur
	fx.expect("opened", gFencing, []int{0, 2}, "fence@0 fence@2")

	fx.deliver(2, msgFenceAck{Seq: b.seq})
	fx.deliver(0, msgFenceAck{Seq: b.seq})
	fx.expect("bare re-acks", gFencing, []int{0, 2}, "")
	if fx.q.FenceWaits != 1 || !b.parts[2].acked || b.parts[0].acked {
		t.Fatalf("FenceWaits=%d acked 0:%v 2:%v, want shard 2's bare ack counted alone",
			fx.q.FenceWaits, b.parts[0].acked, b.parts[2].acked)
	}

	fx.deliver(2, fx.fenceAnswer(2))
	fx.deliver(2, fx.fenceAnswer(2))
	fx.expect("shard 2 answered twice", gFencing, []int{0}, "")

	fx.deliver(0, fx.fenceAnswer(0))
	fx.expect("both answered", gApplying, []int{0, 2}, "globalapply@0 globalapply@2")
	if fx.q.FenceWaits != 2 || fx.q.GlobalTxns != 1 {
		t.Fatalf("FenceWaits=%d GlobalTxns=%d, want 2 and 1", fx.q.FenceWaits, fx.q.GlobalTxns)
	}
}

// TestSequencerTableReadMissRefencesTheGrownParts: an execution that reaches
// a register no fence ack answered for appends it to its owner's read list
// and re-fences that owner alone — a footprint part whose list grew, or a
// shard the footprint grows to — while the parts that answered keep their
// answer. The re-fence's answer re-executes the batch, which then applies.
func TestSequencerTableReadMissRefencesTheGrownParts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cand      int // the shard of the register pick reaches
		footprint []int
		applies   string
	}{
		{"part grows", 1, []int{0, 1}, "globalapply@0 globalapply@1"},
		{"footprint grows", 3, []int{0, 1, 3}, "globalapply@0 globalapply@1 globalapply@3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newSeqFixture(t)
			fx.submit(0, "pick", interp.IntV(5), fx.ref(1, 0), interp.ListV(fx.ref(tc.cand, 1), fx.ref(2, 1)))
			b := fx.q.cur
			fx.expect("opened", gFencing, []int{0, 1}, "fence@0 fence@1")
			fx.deliver(0, fx.fenceAnswer(0))
			fx.deliver(1, fx.fenceAnswer(1))
			grown := fmt.Sprintf("fence@%d", tc.cand)
			fx.expect("missed", gExecuting, []int{tc.cand}, grown)
			want := regRef(fx.keys[tc.cand][1])
			if p := b.parts[tc.cand]; !slices.Equal(b.footprint, tc.footprint) || p.reads[len(p.reads)-1] != want {
				t.Fatalf("footprint %v, shard %d reads %v; want %v ending in %v",
					b.footprint, tc.cand, p.reads, tc.footprint, want)
			}
			fx.deliver(tc.cand, fx.fenceAnswer(tc.cand))
			fx.expect("re-fence answered", gApplying, tc.footprint, tc.applies)
		})
	}
}

// TestSequencerTableCountsAnAckOnce: a duplicate apply ack and a duplicate
// unfence ack leave the phase waiting on the parts that did not answer; the
// last answer of each phase moves the batch on, and the last unfence ack
// closes it.
func TestSequencerTableCountsAnAckOnce(t *testing.T) {
	fx := newSeqFixture(t)
	fx.applying()
	fx.deliver(0, fx.applied(0))
	fx.deliver(0, fx.applied(0))
	fx.expect("shard 0's apply acked twice", gApplying, []int{2}, "")
	fx.deliver(2, fx.applied(2))
	fx.expect("both applies acked", gUnfencing, []int{0, 2}, "unfence@0 unfence@2")
	fx.deliver(2, fx.unfenced())
	fx.deliver(2, fx.unfenced())
	fx.expect("shard 2's unfence acked twice", gUnfencing, []int{0}, "")
	fx.deliver(0, fx.unfenced())
	if fx.q.cur != nil || fx.q.ScopedFences != 1 || len(fx.q.inFlight) != 0 {
		t.Fatalf("batch in flight %v, scoped fences %d, %d ids in flight; want the batch closed",
			fx.q.cur != nil, fx.q.ScopedFences, len(fx.q.inFlight))
	}
}

// TestSequencerTableTickResendsWhatIsOwed: in each phase the stall tick
// sends what the phase owes to every part it still waits on, in ring order,
// and nothing to a part that answered; with no batch in flight it sends
// nothing and stops.
func TestSequencerTableTickResendsWhatIsOwed(t *testing.T) {
	fx := newSeqFixture(t)
	tick := func() {
		t.Helper()
		at := fx.q.tickAt
		fx.cluster.RunUntil(at)
		if fx.cluster.Now() != at {
			t.Fatalf("the tick armed for %v never came", at)
		}
	}
	fx.submit(0, "spread", interp.IntV(5), fx.ref(1, 0), fx.ref(3, 0))
	fx.expect("opened", gFencing, []int{0, 1, 3}, "fence@0 fence@1 fence@3")
	fx.deliver(1, fx.fenceAnswer(1))
	tick()
	fx.expect("fence tick", gFencing, []int{0, 3}, "fence@0 fence@3")

	fx.deliver(0, fx.fenceAnswer(0))
	fx.deliver(3, fx.fenceAnswer(3))
	fx.expect("fenced", gApplying, []int{0, 1, 3}, "globalapply@0 globalapply@1 globalapply@3")
	fx.deliver(1, fx.applied(1))
	tick()
	fx.expect("apply tick", gApplying, []int{0, 3}, "globalapply@0 globalapply@3")

	fx.deliver(0, fx.applied(0))
	fx.deliver(3, fx.applied(3))
	fx.expect("applied", gUnfencing, []int{0, 1, 3}, "unfence@0 unfence@1 unfence@3")
	fx.deliver(1, fx.unfenced())
	tick()
	fx.expect("unfence tick", gUnfencing, []int{0, 3}, "unfence@0 unfence@3")

	fx.deliver(0, fx.unfenced())
	fx.deliver(3, fx.unfenced())
	if fx.q.cur != nil {
		t.Fatal("the batch did not close")
	}
	at := fx.q.tickAt
	tick()
	if got := fx.took(); got != "" || fx.q.tickAt != at {
		t.Fatalf("idle tick sent %q and re-armed for %v", got, fx.q.tickAt)
	}
}

// TestSequencerTableDropsALateAck: an answer to a phase the batch has left —
// a fence ack while it applies, an apply ack while it unfences — and an
// unfence ack before it unfences change nothing.
func TestSequencerTableDropsALateAck(t *testing.T) {
	fx := newSeqFixture(t)
	fx.applying()
	fx.deliver(0, fx.fenceAnswer(0))
	fx.deliver(0, fx.unfenced())
	fx.expect("late fence ack, early unfence ack", gApplying, []int{0, 2}, "")
	fx.deliver(0, fx.applied(0))
	fx.deliver(2, fx.applied(2))
	fx.expect("applied", gUnfencing, []int{0, 2}, "unfence@0 unfence@2")
	fx.deliver(0, fx.applied(0))
	fx.deliver(2, fx.fenceAnswer(2))
	fx.expect("late apply and fence acks", gUnfencing, []int{0, 2}, "")
}

// TestSequencerTableReleasesAnOrphan: a fence ack no footprint part of the
// batch in flight owes — from a shard outside the footprint, or for a batch
// since closed — is an orphaned park and gets its releasing unfence; an ack
// for a batch not yet sequenced gets nothing.
func TestSequencerTableReleasesAnOrphan(t *testing.T) {
	fx := newSeqFixture(t)
	fx.applying()
	fx.deliver(3, msgFenceAck{Seq: 1})
	fx.deliver(1, msgFenceAck{Seq: 2})
	fx.expect("outside the footprint", gApplying, []int{0, 2}, "unfence@3")
	for _, idx := range []int{0, 2} {
		fx.deliver(idx, fx.applied(idx))
	}
	for _, idx := range []int{0, 2} {
		fx.deliver(idx, fx.unfenced())
	}
	if fx.q.cur != nil {
		t.Fatal("the batch did not close")
	}
	fx.took()
	fx.deliver(2, msgFenceAck{Seq: 1})
	fx.deliver(1, msgFenceAck{Seq: 2})
	if got := fx.took(); got != "unfence@2" {
		t.Fatalf("after the batch closed: sent %q, want the orphan's unfence@2 alone", got)
	}
}

// TestSequencerSlotOutlivesItsBatch: batch 2 takes batch 1's slot only once
// every footprint shard acked batch 1's unfence, and no copy of batch 1's
// messages that arrives after that changes anything: not its fence at a
// footprint shard, whose lists the slot now fills with batch 2's, nor the
// shard's fence ack echoing them, nor an apply or unfence ack of batch 1.
// The shards run batch 1 themselves, losing shard 2's first unfence ack;
// batch 2's messages are recorded and dropped as in the table tests.
func TestSequencerSlotOutlivesItsBatch(t *testing.T) {
	fx := newSeqFixture(t)
	var (
		fence1 msgFence    // batch 1's fence to shard 0
		ack1   msgFenceAck // shard 0's answer to it
		lost   bool        // shard 2's first unfence ack of batch 1 was lost
		reack  bool        // shard 2 acked batch 1's unfence again
		early  bool        // batch 2 sent something before that
	)
	fx.cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		if idx, ok := fx.sys.shardOfCoord(from); ok && to == sequencerID {
			switch m := msg.(type) {
			case msgFenceAck:
				if idx == 0 && m.Seq == 1 && ack1.Rows == nil {
					ack1 = m
				}
			case msgUnfenceAck:
				if idx == 2 && m.Seq == 1 && !lost {
					lost = true
					return sim.Perturb{Drop: true}
				}
				reack = reack || idx == 2 && m.Seq == 1
			}
			return sim.Perturb{}
		}
		idx, ok := fx.sys.shardOfCoord(to)
		if from != sequencerID || !ok {
			return sim.Perturb{}
		}
		m, isFence := msg.(msgFence)
		if b := fx.q.cur; b != nil && b.seq == 1 {
			if isFence && idx == 0 {
				fence1 = m
			}
			return sim.Perturb{}
		}
		if isFence && m.Seq == 1 {
			return sim.Perturb{} // the stale copy this test delivers
		}
		early = early || !reack
		return fx.drop(idx, msg)
	})
	fx.submit(0, "move", interp.IntV(5), fx.ref(2, 0))
	slot := fx.q.cur
	fx.submit(0, "move", interp.IntV(1), fx.ref(2, 1)) // queues behind batch 1
	for deadline := fx.cluster.Now() + time.Second; fx.q.cur == nil || fx.q.cur.seq != 2; fx.run() {
		if fx.cluster.Now() >= deadline {
			t.Fatal("batch 2 never opened")
		}
	}
	if !lost || early || fx.q.cur != slot {
		t.Fatalf("lost ack %v, batch 2 sent before the last unfence ack %v, slot reused %v; want true, false, true",
			lost, early, fx.q.cur == slot)
	}
	fx.expect("batch 2 opened", gFencing, []int{0, 2}, "fence@0 fence@2")
	if fence1.Seq != 1 || !slices.Equal(fence1.Admit, []string{"g2"}) || !slices.Equal(ack1.Admit, []string{"g2"}) {
		t.Fatalf("batch 1's fence and ack copies admit %v and %v: want the slot's batch-2 list, which they share",
			fence1.Admit, ack1.Admit)
	}

	coord := fx.sys.shards[0].coord
	shard := func() [4]int64 {
		return [4]int64{coord.fenceSeq, coord.fenceDone, coord.fencePending.Seq, int64(coord.GlobalFences)}
	}
	before, waits := shard(), fx.q.FenceWaits
	fx.cluster.Inject(fx.cluster.Now(), sequencerID, coord.sys.coordID, fence1)
	fx.run()
	fx.expect("batch 1's fence at shard 0", gFencing, []int{0, 2}, "unfence@0") // its bare ack is an orphan's
	fx.deliver(0, ack1)
	fx.expect("batch 1's fence ack", gFencing, []int{0, 2}, "unfence@0")
	stale := func() {
		t.Helper()
		for _, idx := range []int{0, 2} {
			fx.deliver(idx, sysapi.MsgResponse{Response: sysapi.Response{Req: applyID(1, idx)}})
			fx.deliver(idx, msgUnfenceAck{Seq: 1})
		}
	}
	stale()
	fx.expect("batch 1's apply and unfence acks", gFencing, []int{0, 2}, "")
	b := fx.q.cur
	if got := shard(); got != before || fx.q.FenceWaits != waits || b.parts[0].acked || len(b.fetched) != 0 {
		t.Fatalf("shard 0 went from %v to %v, fence waits %d to %d, part acked %v, %d rows fetched: want no change",
			before, got, waits, fx.q.FenceWaits, b.parts[0].acked, len(b.fetched))
	}
	fx.deliver(0, fx.fenceAnswer(0))
	fx.deliver(2, fx.fenceAnswer(2))
	fx.expect("batch 2 fenced", gApplying, []int{0, 2}, "globalapply@0 globalapply@2")
	stale()
	fx.expect("batch 1's acks while batch 2 applies", gApplying, []int{0, 2}, "")
}

// TestSequencerOverlayCopiesOnWrite: a fence ack hands the sequencer the
// parked workers' own rows, and the batch writes none of them. The batch is
// a transfer from shard 0 to shard 2 and a move of 0 from shard 1 to shard
// 3, which writes both its registers the value they hold. Until the
// applies install, each worker's committed row is the one it had before
// the fence, encoding the same bytes; the overlay holds a copy of every row
// the batch wrote, and no row of the manifest is a worker's.
func TestSequencerOverlayCopiesOnWrite(t *testing.T) {
	fx := newSeqFixture(t)
	fx.applying() // batch 1, which the two members queue behind
	fx.inject(0, "move", interp.IntV(5), fx.ref(2, 0))
	fx.inject(1, "move", interp.IntV(0), fx.ref(3, 0))
	for _, idx := range []int{0, 2} {
		fx.deliver(idx, fx.applied(idx))
	}
	for _, idx := range []int{0, 2} {
		fx.deliver(idx, fx.unfenced())
	}
	fx.expect("batch 2 opened", gFencing, []int{0, 1, 2, 3},
		"unfence@0 unfence@2 fence@0 fence@1 fence@2 fence@3")
	var refs []interp.EntityRef
	for idx := range fx.keys {
		refs = append(refs, regRef(fx.keys[idx][0]))
	}
	rows := map[interp.EntityRef]*interp.Row{}
	encs := map[interp.EntityRef][]byte{}
	for _, ref := range refs {
		rows[ref] = fx.committed(ref)
		encs[ref] = slices.Clone(rows[ref].Encoding())
	}
	for idx := range fx.keys {
		fx.deliver(idx, fx.fenceAnswer(idx))
	}
	fx.expect("executed", gApplying, []int{0, 1, 2}, "globalapply@0 globalapply@1 globalapply@2")

	b := fx.q.cur
	for _, ref := range refs {
		if row := fx.committed(ref); row != rows[ref] || !bytes.Equal(row.Encoding(), encs[ref]) {
			t.Errorf("%v: the worker's row was replaced (%v) or rewritten: %q, was %q",
				ref, row != rows[ref], row.Encoding(), encs[ref])
		}
		if row, _ := b.overlay.Lookup(ref); row == rows[ref] {
			t.Errorf("%v: the batch wrote it, but the overlay holds the worker's row", ref)
		}
	}
	writes := 0
	for _, a := range b.man.applies {
		for _, w := range a.writes {
			writes++
			if w.St == fx.committed(w.Ref) {
				t.Errorf("%v: the manifest's row is the worker's", w.Ref)
			}
		}
	}
	if writes != 2 {
		t.Errorf("the manifest writes %d rows, want the transfer's 2", writes)
	}
}

// idleSlot fails unless the sequencer is idle and its slot empty — no list
// entry, map entry, overlay row or manifest — with no list's storage beyond
// what appending a batch of txns transfers between two shards grows.
func idleSlot(t *testing.T, q *Sequencer, txns int) {
	t.Helper()
	b := q.slot
	if q.cur != nil || b == nil {
		t.Fatalf("batch in flight %v, slot %v: want an idle slot", q.cur != nil, b != nil)
	}
	held := len(b.txns) + len(b.footprint) + len(b.refs) + len(b.known) + len(b.fetched) + len(b.dirty) +
		len(b.recon.missing) + len(b.overlay.Refs())
	if held != 0 || b.man != nil || b.seq != 0 {
		t.Fatalf("idle slot holds %d entries, manifest %v, seq %d", held, b.man != nil, b.seq)
	}
	if members := grown[globalTxn](txns); cap(b.txns) > members || cap(q.queue) > members ||
		cap(b.footprint) > grown[int](2) || cap(b.refs) > grown[interp.EntityRef](2) {
		t.Fatalf("idle slot keeps room for %d and %d members, %d shards, %d refs; a batch grew %d, %d, %d",
			cap(b.txns), cap(q.queue), cap(b.footprint), cap(b.refs), members, grown[int](2), grown[interp.EntityRef](2))
	}
	for i, p := range b.parts {
		if len(p.admit)+len(p.reads) != 0 || p.apply != nil || p.waits || p.acked || p.rows != 0 || p.home {
			t.Fatalf("idle slot's part %d is %+v", i, p)
		}
		if cap(p.admit) > grown[string](txns) || cap(p.reads) > grown[interp.EntityRef](1) {
			t.Fatalf("idle slot's part %d keeps room for %d ids and %d reads; a batch grew %d and %d",
				i, cap(p.admit), cap(p.reads), grown[string](txns), grown[interp.EntityRef](1))
		}
	}
}

// grown is the capacity appending n elements one by one to a nil slice
// leaves.
func grown[T any](n int) int {
	var s []T
	for range n {
		s = append(s, *new(T))
	}
	return cap(s)
}

// TestSequencerStateIsBounded: what the sequencer keeps per transaction and
// per batch goes when the batch does. A burst of global transfers, a
// failover that rolls a half-applied batch forward, one that abandons a
// fenced batch and its retry leave, once idle, no batch in flight, nothing
// queued and no id in flight, and the batch slot empty, its storage sized
// by the largest batch it served: the burst's sixteen transfers, then, in
// the slot the last failover made afresh, the retry alone.
func TestSequencerStateIsBounded(t *testing.T) {
	fx := newFailoverFixture(t)
	q := fx.sys.Sequencer()
	send := func(id string) {
		fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(),
			sysapi.MsgRequest{Request: transferReq(id, fx.from, fx.to, 1), ReplyTo: "client"})
	}
	for i := range 16 {
		send(fmt.Sprintf("burst%d", i))
	}
	fx.settle()
	idleSlot(t, q, 16)
	send("rolled")
	fx.crashSequencerWhen("one apply of the batch acked", func() bool {
		b := q.cur
		return b != nil && b.phase == gApplying && b.parts[0].waits != b.parts[1].waits
	})
	fx.settle()
	send("abandoned")
	fx.crashSequencerWhen("both shards parked", func() bool { return fx.parked() == 2 })
	fx.settle()
	send("abandoned")
	fx.settle()

	if q.Failovers != 2 || q.RederivedBatches != 1 || q.AbortedBatches != 1 || len(fx.client.got) != 18 {
		t.Fatalf("failovers=%d rederived=%d aborted=%d responses=%d, want 2/1/1/18",
			q.Failovers, q.RederivedBatches, q.AbortedBatches, len(fx.client.got))
	}
	if q.cur != nil || len(q.queue) != 0 || len(q.inFlight) != 0 {
		t.Fatalf("idle sequencer holds batch %v, %d queued, %d ids in flight", q.cur != nil, len(q.queue), len(q.inFlight))
	}
	idleSlot(t, q, 1)
}

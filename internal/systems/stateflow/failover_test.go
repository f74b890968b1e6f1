package stateflow

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// Sequencer failover, placed by virtual time. Each case steps a 2-shard
// deployment until the protocol state it wants to crash into is observable
// on the shards, then opens a sequencer crash window at that instant with
// cluster.ScheduleCrash. The instant is found again on every run, so these
// cases do not go stale when a message count or a link-delay draw moves —
// unlike the seeded chaos plans that otherwise cover the same paths.

// rawClient records every response delivery (sysapi.ScriptClient folds
// duplicates, which is exactly what these cases must see).
type rawClient struct{ got []sysapi.Response }

func (c *rawClient) OnMessage(_ *sim.Context, _ string, msg sim.Message) {
	if m, ok := msg.(sysapi.MsgResponse); ok {
		c.got = append(c.got, m.Response)
	}
}

type failoverFixture struct {
	t        *testing.T
	cluster  *sim.Cluster
	sys      *ShardedSystem
	client   *rawClient
	from, to string // a cross-shard account pair
}

func newFailoverFixture(t *testing.T) *failoverFixture {
	t.Helper()
	return newFailoverFixtureWith(t, DefaultConfig())
}

func newFailoverFixtureWith(t *testing.T, cfg Config) *failoverFixture {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(42)
	cfg.Shards = 2
	sys := New(cluster, prog, cfg)
	const accounts = 8
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	client := &rawClient{}
	cluster.Add("client", client)
	cluster.Start()
	fx := &failoverFixture{t: t, cluster: cluster, sys: sys, client: client}
	fx.from, fx.to = accountPair(t, sys, accounts, true)
	return fx
}

// transfer submits the cross-shard transfer under request id "x1" now.
func (fx *failoverFixture) transfer() {
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(),
		sysapi.MsgRequest{Request: transferReq("x1", fx.from, fx.to, 25), ReplyTo: "client"})
}

// crashWhen steps virtual time until cond holds, then crashes component id
// at that instant for 10ms.
func (fx *failoverFixture) crashWhen(id, what string, cond func() bool) {
	fx.t.Helper()
	fx.stepUntil(what, cond)
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(id, now, now+10*time.Millisecond)
}

// stepUntil steps virtual time until cond holds.
func (fx *failoverFixture) stepUntil(what string, cond func() bool) {
	fx.t.Helper()
	const step = 20 * time.Microsecond
	deadline := fx.cluster.Now() + time.Second
	for !cond() {
		if fx.cluster.Now() >= deadline {
			fx.t.Fatalf("never observed: %s", what)
		}
		fx.cluster.RunUntil(fx.cluster.Now() + step)
	}
}

func (fx *failoverFixture) crashSequencerWhen(what string, cond func() bool) {
	fx.t.Helper()
	fx.crashWhen(sequencerID, what, cond)
}

func (fx *failoverFixture) settle() { fx.cluster.RunUntil(fx.cluster.Now() + 2*time.Second) }

// home is the coordinator of the shard that owns the transfer's source
// account: the shard that releases the transfer's response.
func (fx *failoverFixture) home() *Coordinator {
	ref := interp.EntityRef{Class: "Account", Key: fx.from}
	return fx.sys.Shards()[fx.sys.ShardOf(ref)].Coordinator()
}

// parked counts the shards fenced right now.
func (fx *failoverFixture) parked() (n int) {
	for _, sh := range fx.sys.Shards() {
		if sh.Coordinator().fenceSeq != 0 {
			n++
		}
	}
	return n
}

func (fx *failoverFixture) anyFenced() bool { return fx.parked() > 0 }

func (fx *failoverFixture) globalApplies() (n int) {
	for _, sh := range fx.sys.Shards() {
		n += sh.Coordinator().GlobalApplies
	}
	return n
}

// applyDurable reports whether a shard released the ack of batch 1's apply,
// which it does only once the apply's commit is fsynced.
func (fx *failoverFixture) applyDurable(shard int) bool {
	_, ok := fx.sys.Shards()[shard].Coordinator().journal.delivered(applyID(1, shard))
	return ok
}

func (fx *failoverFixture) balances() (from, to int64) {
	a, _ := fx.sys.EntityState("Account", fx.from)
	b, _ := fx.sys.EntityState("Account", fx.to)
	return a["balance"].I, b["balance"].I
}

// crashMidApply drives case (a) to completion: the sequencer dies with
// exactly one shard's apply durable, and its next incarnation must finish
// the batch from that shard's logged record.
func crashMidApply(t *testing.T) *failoverFixture {
	t.Helper()
	fx := newFailoverFixture(t)
	fx.transfer()
	fx.crashSequencerWhen("exactly one shard's apply durable", func() bool {
		return fx.applyDurable(0) != fx.applyDurable(1)
	})
	fx.settle()
	return fx
}

// TestFailoverRollsForwardHalfAppliedBatch is case (a).
func TestFailoverRollsForwardHalfAppliedBatch(t *testing.T) {
	fx := crashMidApply(t)
	q := fx.sys.Sequencer()
	if q.Failovers != 1 || q.RederivedBatches != 1 || q.AbortedBatches != 0 {
		t.Fatalf("failovers=%d rederived=%d aborted=%d, want 1/1/0", q.Failovers, q.RederivedBatches, q.AbortedBatches)
	}
	if !fx.applyDurable(0) || !fx.applyDurable(1) {
		t.Fatal("the rolled-forward batch left a shard without its apply")
	}
	if from, to := fx.balances(); from != 75 || to != 125 {
		t.Fatalf("balances %d/%d, want 75/125", from, to)
	}
	if len(fx.client.got) != 1 || fx.client.got[0].Err != "" || !fx.client.got[0].Value.B {
		t.Fatalf("client saw %+v, want the one successful response", fx.client.got)
	}
	if fx.anyFenced() {
		t.Fatal("a shard is still fenced")
	}
}

// TestFailoverAbandonsFencedBatch is case (b): the crash lands after both
// shards parked and before any apply exists, so nothing committed and
// nothing was released. The rebooted sequencer unfences; the client's retry
// is sequenced from scratch and commits once.
func TestFailoverAbandonsFencedBatch(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.transfer()
	fx.crashSequencerWhen("both shards parked", func() bool { return fx.parked() == 2 })
	fx.settle()
	q := fx.sys.Sequencer()
	if q.Failovers != 1 || q.AbortedBatches != 1 || q.RederivedBatches != 0 {
		t.Fatalf("failovers=%d aborted=%d rederived=%d, want 1/1/0", q.Failovers, q.AbortedBatches, q.RederivedBatches)
	}
	for i, sh := range fx.sys.Shards() {
		if sh.Coordinator().fenceSeq != 0 {
			t.Fatalf("shard %d still fenced after the abandon", i)
		}
		if sh.Coordinator().GlobalApplies != 0 {
			t.Fatalf("shard %d ran an apply of the abandoned batch", i)
		}
	}
	if from, to := fx.balances(); from != 100 || to != 100 || len(fx.client.got) != 0 {
		t.Fatalf("abandoned batch leaked: balances %d/%d, %d responses", from, to, len(fx.client.got))
	}

	fx.transfer() // the client's retry
	fx.settle()
	if from, to := fx.balances(); from != 75 || to != 125 {
		t.Fatalf("balances after the retry %d/%d, want 75/125", from, to)
	}
	if len(fx.client.got) != 1 || !fx.client.got[0].Value.B {
		t.Fatalf("client saw %+v, want the one successful response", fx.client.got)
	}
	if q.GlobalBatches != 2 {
		t.Fatalf("GlobalBatches = %d, want 2 (abandoned + retried)", q.GlobalBatches)
	}
}

// TestFailoverReservesAnsweredUnderTheFence is case (c): a retry
// of an answered global id is a batch member like any other until its home
// shard, parked, reports it known; then it leaves the batch unexecuted and
// that shard's ingress serves the recorded response again. The sequencer
// remembers nothing about answered transactions, so the path is the same
// whether or not it failed over in between.
func TestFailoverReservesAnsweredUnderTheFence(t *testing.T) {
	for name, failover := range map[string]bool{"no_failover": false, "failover": true} {
		t.Run(name, func(t *testing.T) {
			var fx *failoverFixture
			if failover {
				fx = crashMidApply(t)
				now := fx.cluster.Now()
				fx.cluster.ScheduleCrash(sequencerID, now, now+10*time.Millisecond)
			} else {
				fx = newFailoverFixture(t)
				fx.transfer()
			}
			fx.settle()
			q := fx.sys.Sequencer()
			if len(fx.client.got) != 1 || q.GlobalTxns != 1 || q.KnownRetries != 0 {
				t.Fatalf("before the retry: %d responses, GlobalTxns %d, KnownRetries %d, want 1/1/0",
					len(fx.client.got), q.GlobalTxns, q.KnownRetries)
			}
			applies, replays := fx.globalApplies(), fx.home().Replays

			fx.transfer() // retry of the answered id
			fx.settle()
			if q.GlobalTxns != 1 || q.KnownRetries != 1 {
				t.Fatalf("retry was sequenced: GlobalTxns %d, KnownRetries %d, want 1/1", q.GlobalTxns, q.KnownRetries)
			}
			if got := fx.globalApplies(); got != applies {
				t.Fatalf("GlobalApplies %d -> %d: the retry's batch applied something", applies, got)
			}
			if got := fx.home().Replays; got != replays+1 {
				t.Fatalf("home shard Replays %d -> %d, want the one re-serve", replays, got)
			}
			if len(fx.client.got) != 2 || fx.client.got[1].Req != "x1" || !fx.client.got[1].Value.B {
				t.Fatalf("client saw %+v, want the recorded response served again", fx.client.got)
			}
			if from, to := fx.balances(); from != 75 || to != 125 {
				t.Fatalf("balances %d/%d, want 75/125", from, to)
			}
			if fx.anyFenced() || len(q.inFlight) != 0 {
				t.Fatalf("the retry's fence window did not close: fenced=%v, %d in flight", fx.anyFenced(), len(q.inFlight))
			}
		})
	}
}

// dropFirst installs a perturbation that loses the first n sends matching
// pick and reports how many matching sends it has seen.
func (fx *failoverFixture) dropFirst(n int, pick func(from, to string, msg sim.Message) bool) *int {
	seen := new(int)
	fx.cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		if !pick(from, to, msg) {
			return sim.Perturb{}
		}
		*seen++
		return sim.Perturb{Drop: *seen <= n}
	})
	return seen
}

// TestFailoverAfterReleaseSendsNoSecondResponse: the sequencer dies after
// the home shard released the response and before the last shard confirmed
// its unfence (that shard's unfence is lost, so it is still parked with the
// batch's apply in its log). The next incarnation must roll the batch
// forward — and must not answer the client a second time.
func TestFailoverAfterReleaseSendsNoSecondResponse(t *testing.T) {
	fx := newFailoverFixture(t)
	other := fx.sys.Shards()[1-fx.sys.ShardOf(interp.EntityRef{Class: "Account", Key: fx.from})]
	fx.dropFirst(1, func(_, to string, msg sim.Message) bool {
		_, unfence := msg.(msgUnfence)
		return unfence && to == other.coordID
	})
	fx.transfer()
	fx.crashSequencerWhen("response released, a shard still parked", func() bool {
		return len(fx.client.got) == 1 && fx.sys.Sequencer().cur != nil &&
			fx.sys.Sequencer().cur.phase == gUnfencing
	})
	if other.Coordinator().fenceSeq == 0 {
		t.Fatal("the shard whose unfence was dropped is not parked; the crash exercises nothing")
	}
	fx.settle()
	q := fx.sys.Sequencer()
	if q.Failovers != 1 || q.RederivedBatches != 1 {
		t.Fatalf("failovers=%d rederived=%d, want 1/1", q.Failovers, q.RederivedBatches)
	}
	if len(fx.client.got) != 1 {
		t.Fatalf("client got %d responses, want exactly 1: %+v", len(fx.client.got), fx.client.got)
	}
	if from, to := fx.balances(); from != 75 || to != 125 || fx.anyFenced() {
		t.Fatalf("balances %d/%d (want 75/125), fenced=%v", from, to, fx.anyFenced())
	}
}

// TestFailoverDropsALateApplyOfAnAbandonedBatch: both of batch 1's applies
// are held in flight and the sequencer dies with them, so its next
// incarnation finds both shards parked with no apply logged and abandons
// the batch. Shard 0 is still parked when the held apply reaches it, after
// its fence report: had it logged the apply, it would commit half of a batch
// whose transfer the client's retry then commits again. Its report promised
// the new incarnation's ballot, so it drops the dead incarnation's apply —
// also when its coordinator reboots in between, rebuilding the park (and
// the promise) from the source log, and the abandon's unfence dies with it.
func TestFailoverDropsALateApplyOfAnAbandonedBatch(t *testing.T) {
	for _, reboot := range []bool{false, true} {
		t.Run(map[bool]string{false: "parked", true: "rebooted"}[reboot], func(t *testing.T) {
			fx := newFailoverFixture(t)
			shard0 := fx.sys.Shards()[0]
			var held []sim.Message // the applies lost in flight, shard 0's first
			reported := false
			fx.cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
				switch msg.(type) {
				case msgGlobalApply:
					if len(held) < 2 {
						if to == shard0.coordID {
							held = append([]sim.Message{msg}, held...)
						} else {
							held = append(held, msg)
						}
						return sim.Perturb{Drop: true}
					}
				case msgSeqFenceReport:
					reported = reported || from == shard0.coordID
				}
				return sim.Perturb{}
			})
			fx.transfer()
			q := fx.sys.Sequencer()
			fx.crashSequencerWhen("the applies 3 ms gone", func() bool {
				return q.cur != nil && q.cur.phase == gApplying && fx.cluster.Now()-q.cur.phaseAt >= 3*time.Millisecond
			})
			if reboot {
				fx.crashWhen(shard0.coordID, "shard 0's fence report sent", func() bool { return reported })
				fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Millisecond)
			} else {
				fx.stepUntil("shard 0's fence report sent", func() bool { return reported })
			}
			c := shard0.Coordinator()
			if len(held) != 2 || c.fenceSeq != 1 || c.Restarts != map[bool]int{false: 0, true: 1}[reboot] {
				t.Fatalf("%d applies held, shard 0 fenced %v on %d after %d restarts: want both held and shard 0 parked on batch 1",
					len(held), c.fenceSeq != 0, c.fenceSeq, c.Restarts)
			}
			fx.cluster.Inject(fx.cluster.Now(), sequencerID, shard0.coordID, held[0])
			fx.settle()
			midFrom, midTo := fx.balances()
			midResponses, midApplies := len(fx.client.got), fx.globalApplies()

			fx.transfer() // the client's retry
			fx.settle()
			if from, to := fx.balances(); from != 75 || to != 125 {
				t.Fatalf("balances after the retry %d/%d, want 75/125 (%d/%d before it)", from, to, midFrom, midTo)
			}
			if q.Failovers != 1 || q.AbortedBatches != 1 || q.RederivedBatches != 0 {
				t.Fatalf("failovers=%d aborted=%d rederived=%d, want 1/1/0", q.Failovers, q.AbortedBatches, q.RederivedBatches)
			}
			if midFrom != 100 || midTo != 100 || midResponses != 0 || midApplies != 0 {
				t.Fatalf("the late apply committed: balances %d/%d, %d responses, %d applies run before the retry",
					midFrom, midTo, midResponses, midApplies)
			}
			if len(fx.client.got) != 1 || !fx.client.got[0].Value.B || fx.anyFenced() {
				t.Fatalf("client saw %+v (want the one successful response), fenced=%v", fx.client.got, fx.anyFenced())
			}
		})
	}
}

// TestOrphanedParkAfterAbandonIsReleased: a failover abandons a fenced
// batch, and the one unfence it sends a parked shard dies with that
// shard's coordinator, whose restart scan rebuilds the park from the
// durable marker. Nothing will ever unfence that batch again, so the shard
// must surface the orphan itself (park watchdog → maybeReleaseOrphan), and
// the next global batch must get through.
func TestOrphanedParkAfterAbandonIsReleased(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.transfer()
	fx.crashSequencerWhen("both shards parked", func() bool { return fx.parked() == 2 })
	victim := fx.sys.Shards()[0]
	fx.crashWhen(victim.coordID, "the abandon's unfences in flight", func() bool {
		return fx.sys.Sequencer().AbortedBatches == 1
	})
	fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Millisecond)
	c := victim.Coordinator()
	if c.Restarts != 1 || c.fenceSeq != 1 {
		t.Fatalf("restarts=%d fenced=%v on %d, want the park on batch 1 rebuilt by one restart", c.Restarts, c.fenceSeq != 0, c.fenceSeq)
	}

	fx.transfer() // the client's retry of the abandoned transfer
	fx.cluster.RunUntil(fx.cluster.Now() + 2*DefaultConfig().StallTimeout)
	if len(fx.client.got) != 1 || !fx.client.got[0].Value.B {
		t.Fatalf("client saw %+v within two stall timeouts, want the one successful response", fx.client.got)
	}
	if from, to := fx.balances(); from != 75 || to != 125 {
		t.Fatalf("balances %d/%d, want 75/125", from, to)
	}
	fx.settle()
	if fx.anyFenced() {
		t.Fatal("a shard stayed fenced")
	}
}

// TestLateGlobalDuplicateIsAbsorbedByTheFloor: a cross-shard transfer is
// answered, the retention window prunes its entry from the home shard's
// journal (raising the source's dedup floor), the sequencer fails over, and
// the id arrives again. The home shard no longer holds the response, but
// its verdict under the fence is still "known" — at or below the floor —
// so the copy is absorbed, not executed a second time.
func TestLateGlobalDuplicateIsAbsorbedByTheFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DedupRetention = 50 * time.Millisecond
	cfg.SnapshotEvery = 2
	fx := newFailoverFixtureWith(t, cfg)
	late := sysapi.MsgRequest{Request: transferReq("cl.1", fx.from, fx.to, 7), ReplyTo: "client"}
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), late)
	// Single-shard traffic on the home shard keeps its epochs closing and
	// its snapshots sealing, so the retention prune runs.
	home := fx.home()
	var local []string
	for _, key := range shardAccounts(fx.sys, 8)[home.sys.shardIndex] {
		if key != fx.from {
			local = append(local, key)
		}
	}
	for i := 0; i < 30; i++ {
		fx.cluster.Inject(time.Duration(i+1)*10*time.Millisecond, "client", fx.sys.IngressID(), sysapi.MsgRequest{
			Request: transferReq(fmt.Sprintf("bg.%d", i+1), local[0], local[1], 1), ReplyTo: "client"})
	}
	fx.cluster.RunUntil(400 * time.Millisecond)
	if _, held := home.journal.delivered("cl.1"); held || home.journal.dedupFloor["cl"] < 1 {
		t.Fatalf("home shard still holds cl.1 (held=%v, floor %d); retention never pruned it", held, home.journal.dedupFloor["cl"])
	}
	if from, _ := fx.balances(); from != 93 {
		t.Fatalf("source balance %d after the transfer, want 93", from)
	}
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(sequencerID, now, now+10*time.Millisecond)
	fx.settle()
	responses := len(fx.client.got)

	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), late)
	fx.settle()
	q := fx.sys.Sequencer()
	if from, _ := fx.balances(); from != 93 {
		t.Fatalf("source balance %d after the late duplicate, want 93 (it ran again)", from)
	}
	if q.Failovers != 1 || q.KnownRetries != 1 || q.GlobalTxns != 1 || home.LateDuplicates != 1 {
		t.Fatalf("failovers=%d KnownRetries=%d GlobalTxns=%d LateDuplicates=%d, want 1/1/1/1",
			q.Failovers, q.KnownRetries, q.GlobalTxns, home.LateDuplicates)
	}
	if len(fx.client.got) != responses {
		t.Fatalf("the absorbed duplicate drew %d responses", len(fx.client.got)-responses)
	}
}

// TestParkReackIsNotAnAdmissionAnswer: the home shard's answers to the
// fence of a retried, already-answered transfer are lost twice, so the
// first ack the sequencer sees from it is the park watchdog's bare re-ack.
// Taking that for "parked, nothing known" would execute the transfer a
// second time; the sequencer must wait for an ack that answers its list.
func TestParkReackIsNotAnAdmissionAnswer(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.transfer()
	fx.settle()
	home := fx.home()
	bare := 0
	answers := fx.dropFirst(2, func(from, _ string, msg sim.Message) bool {
		ack, ok := msg.(msgFenceAck)
		if ok && from == home.sys.coordID && ack.Admit == nil && fx.sys.Sequencer().cur.phase == gFencing {
			bare++
		}
		return ok && from == home.sys.coordID && ack.Admit != nil
	})
	applies := fx.globalApplies()

	fx.transfer() // retry of the answered id
	fx.settle()
	if bare == 0 || *answers != 3 {
		t.Fatalf("%d bare re-acks while fencing, %d answering acks; want at least 1 and exactly 3 (two lost)", bare, *answers)
	}
	q := fx.sys.Sequencer()
	if q.KnownRetries != 1 || q.GlobalTxns != 1 || fx.globalApplies() != applies {
		t.Fatalf("KnownRetries=%d GlobalTxns=%d GlobalApplies %d -> %d, want the retry dropped under the fence",
			q.KnownRetries, q.GlobalTxns, applies, fx.globalApplies())
	}
	if from, to := fx.balances(); from != 75 || to != 125 {
		t.Fatalf("balances %d/%d, want 75/125 (the transfer ran twice)", from, to)
	}
	if len(fx.client.got) != 2 || fx.anyFenced() {
		t.Fatalf("%d responses (want the original and one re-serve), fenced=%v", len(fx.client.got), fx.anyFenced())
	}
}

// TestLoggedApplyRowsAreNeverMutated pins what typed records depend on: the
// rows of a logged apply are shared with the record, so installing them
// must not alias them into the committed store. A cross-shard transfer
// commits, a single-shard deposit then updates the credited account in
// place, and a crash of that shard's coordinator makes the binding replay
// install the apply again from the source log. If the install had aliased
// the record's row, the replayed image would already hold the deposit and
// the replayed deposit would apply it twice.
func TestLoggedApplyRowsAreNeverMutated(t *testing.T) {
	fx := newFailoverFixture(t)
	ref := local.New(fx.sys.prog)
	for _, key := range []string{fx.from, fx.to} {
		if err := ref.PreloadEntity("Account", interp.StrV(key), interp.IntV(100)); err != nil {
			t.Fatal(err)
		}
	}

	fx.transfer()
	fx.settle()
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), sysapi.MsgRequest{
		Request: sysapi.Request{
			Req:    "d1",
			Target: interp.EntityRef{Class: "Account", Key: fx.to},
			Method: "deposit",
			Args:   []interp.Value{interp.IntV(10)},
		},
		ReplyTo: "client",
	})
	fx.settle()
	if _, err := ref.Invoke("Account", fx.from, "transfer", interp.IntV(25), interp.RefV("Account", fx.to)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Invoke("Account", fx.to, "deposit", interp.IntV(10)); err != nil {
		t.Fatal(err)
	}

	shard := fx.sys.Shards()[fx.sys.ShardOf(interp.EntityRef{Class: "Account", Key: fx.to})]
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(shard.coordID, now, now+10*time.Millisecond)
	fx.settle()
	c := shard.Coordinator()
	if c.Restarts != 1 || c.BindingReplays != 2 {
		t.Fatalf("restarts=%d binding replays=%d, want 1 and 2 (the apply, then the deposit)", c.Restarts, c.BindingReplays)
	}
	for _, key := range []string{fx.from, fx.to} {
		want, _ := ref.State("Account", key)
		got, _ := fx.sys.EntityState("Account", key)
		if got["balance"].I != want["balance"].I {
			t.Errorf("%s: balance %d, local runtime has %d", key, got["balance"].I, want["balance"].I)
		}
	}
}

// TestFenceDoneSurvivesACheckpointPastItsMarker: a shard's completed fence
// high-water mark must outlive a reboot whose restored cursor is already
// past the batch's closing marker, where the restart scan cannot see it. A
// cross-shard transfer completes batch 1, single-shard deposits carry both
// shards' sealed snapshots past the closing markers, and both shard
// coordinators reboot. A re-sent unfence of batch 1 — a rolled-forward
// batch's, say — must still be acked, and a rebooted sequencer must not hand
// out batch id 1 again: its apply ids would dedupe against the old ones.
func TestFenceDoneSurvivesACheckpointPastItsMarker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1
	fx := newFailoverFixtureWith(t, cfg)
	fx.transfer()
	fx.settle()
	for shard, keys := range shardAccounts(fx.sys, 8) {
		for _, key := range keys {
			if key == fx.from || key == fx.to {
				continue
			}
			fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), sysapi.MsgRequest{
				Request: sysapi.Request{Req: fmt.Sprintf("d%d", shard),
					Target: interp.EntityRef{Class: "Account", Key: key}, Method: "deposit",
					Args: []interp.Value{interp.IntV(1)}},
				ReplyTo: "client",
			})
			break
		}
	}
	fx.settle()
	for i, sh := range fx.sys.Shards() {
		c := sh.Coordinator()
		marker := int64(-1)
		end := sh.RequestLog.End()
		for pos := int64(0); pos < end; pos++ {
			if rec, _ := c.readSource(pos); rec.marker != nil && !rec.marker.open && rec.marker.seq == 1 {
				marker = pos
			}
		}
		meta, ok := c.restorePoint()
		if marker < 0 || !ok || meta.SourceOffsets[sourceTopic][0] <= marker {
			t.Fatalf("shard %d: closing marker at %d, sealed snapshot offset %v: no checkpoint passed the marker", i, marker, meta.SourceOffsets)
		}
		now := fx.cluster.Now()
		fx.cluster.ScheduleCrash(sh.coordID, now, now+10*time.Millisecond)
	}
	fx.settle()

	acks := 0
	fx.cluster.SetPerturb(func(_, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(msgUnfenceAck); ok && m.Seq == 1 {
			acks++
		}
		return sim.Perturb{}
	})
	for _, sh := range fx.sys.Shards() {
		if sh.Coordinator().Restarts != 1 {
			t.Fatalf("%s rebooted %d times, want 1", sh.coordID, sh.Coordinator().Restarts)
		}
		fx.cluster.Inject(fx.cluster.Now(), sequencerID, sh.coordID, msgUnfence{Seq: 1})
	}
	fx.settle()
	if acks != len(fx.sys.Shards()) {
		t.Fatalf("%d of %d rebooted shards acked the re-sent unfence of batch 1", acks, len(fx.sys.Shards()))
	}

	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(sequencerID, now, now+10*time.Millisecond)
	fx.settle()
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(),
		sysapi.MsgRequest{Request: transferReq("x2", fx.from, fx.to, 5), ReplyTo: "client"})
	fx.settle()
	if q := fx.sys.Sequencer(); q.Failovers != 1 || q.nextSeq != 2 {
		t.Fatalf("failovers=%d, last batch id %d: the rebooted sequencer did not resume past batch 1", q.Failovers, q.nextSeq)
	}
	if from, to := fx.balances(); from != 70 || to != 130 {
		t.Fatalf("balances %d/%d after the second transfer, want 70/130", from, to)
	}
}

// TestDroppedFenceDrainsTheBacklog: a shard holds a pending fence while its
// commit slot is busy, so client arrivals are logged but not drawn, and a
// rebooted sequencer's query drops the fence. Nothing else will arrive to
// prompt a drain, yet the backlog must reach a batch within one epoch
// interval; and a fresh arrival after it must not move the cursor past a
// record nobody assigned, or that record's request is lost for good (every
// retry is then absorbed as already logged).
func TestDroppedFenceDrainsTheBacklog(t *testing.T) {
	fx := newFailoverFixture(t)
	a, b := accountPair(t, fx.sys, 8, false)
	sh := fx.sys.Shards()[fx.sys.ShardOf(interp.EntityRef{Class: "Account", Key: a})]
	c := sh.Coordinator()
	send := func(id string) {
		fx.cluster.Inject(fx.cluster.Now(), "client", sh.coordID,
			sysapi.MsgRequest{Request: transferReq(id, a, b, 1), ReplyTo: "client"})
	}
	// drawn: every client record below the cursor is in a batch, waits as a
	// retry, or is answered.
	drawn := func() error {
		for pos := int64(0); pos < c.consumed; pos++ {
			rec, ok := c.readSource(pos)
			if !ok || !rec.isClientRequest() || c.journal.answered(rec.txn.req.Req) {
				continue
			}
			id := rec.txn.req.Req
			held := slices.ContainsFunc(c.pending, func(p pendingReq) bool { return p.req.Req == id })
			for _, st := range [...]*epochState{c.exec, c.commit} {
				held = held || st != nil && slices.ContainsFunc(st.txns, func(t *txnState) bool { return t.req.Req == id })
			}
			if !held {
				return fmt.Errorf("cursor at %d passed record %d (%s), which no batch holds", c.consumed, pos, id)
			}
		}
		return nil
	}

	send("t0")
	fx.stepUntil("t0 committing behind an open, empty successor", func() bool {
		return c.commit != nil && c.exec != nil && c.exec.phase == phaseOpen && len(c.exec.txns) == 0
	})
	fx.cluster.Inject(fx.cluster.Now(), sequencerID, sh.coordID, msgFence{Seq: 1})
	backlog := []string{"t1", "t2", "t3"}
	for _, id := range backlog {
		send(id)
	}
	fx.cluster.Inject(fx.cluster.Now(), sequencerID, sh.coordID, msgSeqFenceQuery{Ballot: 1})
	fx.stepUntil("the backlog logged and the fence dropped", func() bool {
		end := sh.RequestLog.End()
		return end == 4 && c.ballot == 1
	})
	if c.fenceSeq != 0 || c.fencePending.Seq != 0 {
		t.Fatalf("fenced=%v pending=%d: want the query to have dropped the fence before the park", c.fenceSeq != 0, c.fencePending.Seq)
	}
	fx.cluster.RunUntil(fx.cluster.Now() + DefaultConfig().EpochInterval)
	if c.consumed != 4 {
		t.Fatalf("cursor at %d one epoch interval after the fence dropped, want the backlog (records 1-3) drawn", c.consumed)
	}

	send("t4")
	deadline := fx.cluster.Now() + 200*time.Millisecond
	for fx.cluster.Now() < deadline {
		if err := drawn(); err != nil {
			t.Fatal(err)
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
	fx.settle()
	answers := map[string]int{}
	for _, r := range fx.client.got {
		answers[r.Req]++
	}
	for _, id := range append([]string{"t0", "t4"}, backlog...) {
		if answers[id] != 1 {
			t.Fatalf("%s answered %d times, want once (responses %v)", id, answers[id], answers)
		}
	}
	from, _ := fx.sys.EntityState("Account", a)
	to, _ := fx.sys.EntityState("Account", b)
	if from["balance"].I != 95 || to["balance"].I != 105 {
		t.Fatalf("balances %d/%d, want 95/105", from["balance"].I, to["balance"].I)
	}
}

// TestFailoverDropsAPredecessorsWatchdog: every fence report is lost, so a
// rebooted sequencer keeps re-querying the shards once per stall timeout.
// It reboots at t1, dies again half a stall timeout later and reboots at t2,
// before its first incarnation's timer is due. That timer still fires — the
// crash voids sends, not timers — but it belongs to a dead incarnation: the
// queries must go out at t1, at t2 and one stall timeout after t2, and at no
// other instant.
func TestFailoverDropsAPredecessorsWatchdog(t *testing.T) {
	fx := newFailoverFixture(t)
	st := DefaultConfig().StallTimeout
	fx.cluster.SetPerturb(func(_, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		_, report := msg.(msgSeqFenceReport)
		return sim.Perturb{Drop: report}
	})
	queries := map[time.Duration]int{} // send instant -> queries sent then
	fx.cluster.SetTap(func(from, _ string, sentAt, _ time.Duration, msg sim.Message) {
		if _, ok := msg.(msgSeqFenceQuery); ok && from == sequencerID {
			queries[sentAt]++
		}
	})
	t1 := fx.cluster.Now() + 10*time.Millisecond
	t2 := t1 + 3*st/4
	fx.cluster.ScheduleCrash(sequencerID, fx.cluster.Now(), t1)
	fx.cluster.ScheduleCrash(sequencerID, t1+st/2, t2)
	fx.cluster.RunUntil(t2 + 3*st/2)

	want := map[time.Duration]int{t1: 2, t2: 2, t2 + st: 2}
	if q := fx.sys.Sequencer(); q.Failovers != 2 || !q.recovering || !maps.Equal(queries, want) {
		t.Fatalf("failovers=%d recovering=%v, queries sent %v; want 2 reboots still recovering and queries %v",
			q.Failovers, q.recovering, queries, want)
	}
}

// TestFailoverRebootedParkRunsOneWatchdog: both shards park for a transfer
// and the sequencer is held down, so nothing unfences them. Shard 0's
// coordinator reboots inside the park, half a stall timeout after it, and
// its restart scan rebuilds the park with a fresh watchdog. The watchdog the
// first incarnation armed still fires; it must not keep re-acking beside the
// new one — the bare re-acks come one chain's stall timeout apart, not two
// chains interleaved.
func TestFailoverRebootedParkRunsOneWatchdog(t *testing.T) {
	fx := newFailoverFixture(t)
	st := DefaultConfig().StallTimeout
	shard0 := fx.sys.Shards()[0]
	var reacks []time.Duration
	fx.cluster.SetTap(func(from, _ string, sentAt, _ time.Duration, msg sim.Message) {
		// A bare re-ack answers no fence: it carries no lists at all.
		if ack, ok := msg.(msgFenceAck); ok && from == shard0.coordID && ack.Admit == nil && ack.Known == nil {
			reacks = append(reacks, sentAt)
		}
	})
	fx.transfer()
	fx.stepUntil("both shards parked", func() bool { return fx.parked() == 2 })
	park := fx.cluster.Now()
	fx.cluster.ScheduleCrash(sequencerID, park, park+4*st)
	fx.cluster.ScheduleCrash(shard0.coordID, park+st/4, park+st/2)
	fx.cluster.RunUntil(park + 4*st)

	if c := shard0.Coordinator(); c.Restarts != 1 || c.fenceSeq != 1 {
		t.Fatalf("restarts=%d fenced=%v on %d, want shard 0 parked on batch 1 after one restart", c.Restarts, c.fenceSeq != 0, c.fenceSeq)
	}
	if len(reacks) < 2 {
		t.Fatalf("shard 0 re-acked at %v, want at least two re-acks in the park", reacks)
	}
	for i := 1; i < len(reacks); i++ {
		if reacks[i]-reacks[i-1] < st/2 {
			t.Fatalf("shard 0 re-acked at %v: two watchdogs run in one park", reacks)
		}
	}
}

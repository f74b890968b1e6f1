package stateflow

import (
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
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(42)
	cfg := DefaultConfig()
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

// crashSequencerWhen steps virtual time until cond holds, then crashes the
// sequencer at that instant for 10ms.
func (fx *failoverFixture) crashSequencerWhen(what string, cond func() bool) {
	fx.t.Helper()
	const step = 20 * time.Microsecond
	deadline := fx.cluster.Now() + time.Second
	for !cond() {
		if fx.cluster.Now() >= deadline {
			fx.t.Fatalf("never observed: %s", what)
		}
		fx.cluster.RunUntil(fx.cluster.Now() + step)
	}
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.sys.seqID, now, now+10*time.Millisecond)
}

func (fx *failoverFixture) settle() { fx.cluster.RunUntil(fx.cluster.Now() + 2*time.Second) }

// applyDurable reports whether a shard released the ack of batch 1's apply,
// which it does only once the apply's commit is fsynced.
func (fx *failoverFixture) applyDurable(shard int) bool {
	_, ok := fx.sys.Shards()[shard].Coordinator().journal.delivered[applyID(1, shard)]
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
	for i, sh := range fx.sys.Shards() {
		if sh.Coordinator().fenced {
			t.Fatalf("shard %d still fenced", i)
		}
	}
}

// TestFailoverAbandonsFencedBatch is case (b): the crash lands after both
// shards parked and before any apply exists, so nothing committed and
// nothing was released. The rebooted sequencer unfences; the client's retry
// is sequenced from scratch and commits once.
func TestFailoverAbandonsFencedBatch(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.transfer()
	fx.crashSequencerWhen("both shards parked", func() bool {
		for _, sh := range fx.sys.Shards() {
			if !sh.Coordinator().fenced {
				return false
			}
		}
		return true
	})
	fx.settle()
	q := fx.sys.Sequencer()
	if q.Failovers != 1 || q.AbortedBatches != 1 || q.RederivedBatches != 0 {
		t.Fatalf("failovers=%d aborted=%d rederived=%d, want 1/1/0", q.Failovers, q.AbortedBatches, q.RederivedBatches)
	}
	for i, sh := range fx.sys.Shards() {
		if sh.Coordinator().fenced {
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

// TestFailoverReservesAnsweredTransactionByProbe is case (c): after (a), a
// second reboot wipes the sequencer's volatile re-serve buffer, so a retry
// of the answered id looks fresh. Its home shard's durable egress buffer
// must answer the probe, and the transaction must not be sequenced again.
func TestFailoverReservesAnsweredTransactionByProbe(t *testing.T) {
	fx := crashMidApply(t)
	q := fx.sys.Sequencer()
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.sys.seqID, now, now+10*time.Millisecond)
	fx.settle()
	if q.Failovers != 2 || len(q.delivered) != 0 {
		t.Fatalf("failovers=%d with %d buffered responses, want 2 and none", q.Failovers, len(q.delivered))
	}
	globals := q.GlobalTxns

	fx.transfer() // retry of the answered id
	fx.settle()
	if q.GlobalTxns != globals || q.GlobalBatches != 1 {
		t.Fatalf("retry re-sequenced: GlobalTxns %d -> %d, GlobalBatches %d", globals, q.GlobalTxns, q.GlobalBatches)
	}
	if _, ok := q.delivered["x1"]; !ok {
		t.Fatal("the probe answer did not repopulate the sequencer's re-serve buffer")
	}
	if len(fx.client.got) != 2 || fx.client.got[1].Req != "x1" || !fx.client.got[1].Value.B {
		t.Fatalf("client saw %+v, want the recorded response served again", fx.client.got)
	}
	if from, to := fx.balances(); from != 75 || to != 125 {
		t.Fatalf("balances %d/%d, want 75/125", from, to)
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

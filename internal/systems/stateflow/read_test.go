package stateflow

import (
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The fast-read path's three waits (read.go), placed by protocol state: a
// read behind a chain whose answered member has not installed at the read's
// worker, a read homed on a shard parked for a global batch, and reads that
// meet a recovery — arriving during its binding replay, or forwarded to a
// worker that then crashes.

// answered returns the response to request id among a raw client's
// deliveries.
func answered(c *rawClient, id string) (sysapi.Response, bool) {
	for _, r := range c.got {
		if r.Req == id {
			return r, true
		}
	}
	return sysapi.Response{}, false
}

// inject submits a request from the raw client named "client" now.
func inject(cluster *sim.Cluster, ingress string, req sysapi.Request) {
	cluster.Inject(cluster.Now(), "client", ingress, sysapi.MsgRequest{Request: req, ReplyTo: "client"})
}

// TestFastReadWaitsForTheChainsFinalDecide: four transfers into one payee
// arrive in one burst, so they share an epoch (a batch closes as soon as its
// members finish); T1 commits in round 0 and T2, T3, T4 chain on the payee.
// A read of T2's payer arrives with them. A transfer's `return True` reads no state, so T2's response leaves from
// the payee's owner; its release to the payer's owner is held back, and so
// is T3's chained event, which keeps the chain open. T2 is answered while
// its payer's owner has installed round 0 but not T2's debit: the store
// there is between two cuts. A read of the payer, stamped before the batch
// decide (so the buffered gate lets it by) and delivered in that window,
// must not run there: it waits for the epoch's final decide, like an event
// of the epoch after it, and sees T2's debit.
func TestFastReadWaitsForTheChainsFinalDecide(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	cluster, sys := deploy(t, bank, cfg, func(preload func(class string, args ...interp.Value)) {
		for i := 0; i < 10; i++ {
			preload("Account", interp.StrV(acct(i)), interp.IntV(100))
		}
	})
	client := &rawClient{}
	cluster.Add("client", client)
	cluster.Start()
	payerRef := interp.EntityRef{Class: "Account", Key: acct(1)}
	payer := sys.owner(payerRef)
	if payer == sys.owner(interp.EntityRef{Class: "Account", Key: acct(9)}) {
		t.Fatal("fixture: T2's payer and payee share a worker; its release would not travel")
	}
	for i := 0; i < 4; i++ {
		cluster.Inject(time.Millisecond, "client", sys.IngressID(), sysapi.MsgRequest{
			Request: transferReq(fmt.Sprintf("t%d", i+1), acct(i), acct(9), 5), ReplyTo: "client"})
	}
	cluster.Inject(time.Millisecond, "client", sys.IngressID(), sysapi.MsgRequest{
		Request: readReq("r", acct(1)), ReplyTo: "client"})
	stamp := int64(-1)
	cluster.SetPerturb(func(_, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		switch m := msg.(type) {
		case msgChainRelease:
			if m.TID == 2 && to == payer.id {
				return sim.Perturb{Delay: 100 * time.Millisecond}
			}
		case msgTxnEvent:
			if m.Round == readRound {
				stamp = m.Epoch
				return sim.Perturb{Delay: 80 * time.Millisecond}
			}
			if m.TID == 3 && m.Round > 0 {
				return sim.Perturb{Delay: 100 * time.Millisecond}
			}
		}
		return sim.Perturb{}
	})

	for i := 0; ; i++ {
		if _, ok := answered(client, "t2"); ok {
			break
		}
		if i > 500_000 {
			t.Fatal("T2 was never answered")
		}
		cluster.RunUntil(cluster.Now() + 20*time.Microsecond)
	}
	c := sys.Single().Coordinator()
	chained := payer.appliedEpoch + 1
	row, _ := payer.committed.Lookup(payerRef)
	bal := row.CloneMap()["balance"]
	if ep := payer.epochs[chained]; c.FallbackChains != 1 || ep == nil || ep.plan == nil || bal.I != 100 {
		t.Fatalf("chains %d, payer balance %v: T2 was not answered ahead of its install at the payer's owner",
			c.FallbackChains, bal)
	}
	if stamp != chained {
		t.Fatalf("the read was stamped %d, want %d (forwarded before the chained epoch's batch decide)", stamp, chained)
	}
	if _, ok := answered(client, "r"); ok {
		t.Fatal("fixture: the read was answered before T2, outside the window")
	}
	cluster.RunUntil(cluster.Now() + time.Second)

	r, ok := answered(client, "r")
	if !ok {
		t.Fatal("the read was never answered")
	}
	if r.Err != "" || r.Value.I != 95 {
		t.Fatalf("read of the payer answered %v (err %q) from between two cuts, want 95", r.Value, r.Err)
	}
	if c.FastReads != 1 {
		t.Fatalf("FastReads = %d, want the one read", c.FastReads)
	}
}

// TestFastReadHeldWhileParked: a cross-shard transfer parks both shards for
// its global batch, and a read of the transfer's source — homed on a parked
// shard — arrives inside the park. The other shard may install the batch
// and its home release the transfer's response while this shard's side is
// half-installed, so the read is answered only after the unfence, with the
// transfer's debit.
func TestFastReadHeldWhileParked(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.transfer()
	c := fx.home()
	for deadline := fx.cluster.Now() + time.Second; c.fenceSeq == 0; {
		if fx.cluster.Now() >= deadline {
			t.Fatal("the source's shard never parked")
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
	inject(fx.cluster, fx.sys.IngressID(), readReq("r", fx.from))
	parked := 0
	for deadline := fx.cluster.Now() + time.Second; ; {
		if c.fenceSeq != 0 {
			parked++
			if _, ok := answered(fx.client, "r"); ok {
				t.Fatal("the read was answered while its shard was parked")
			}
		} else if _, ok := answered(fx.client, "r"); ok {
			break
		}
		if fx.cluster.Now() >= deadline {
			t.Fatal("the read was never answered")
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
	if parked < 2 {
		t.Fatal("the park was over before the read arrived; the case is vacuous")
	}
	if r, _ := answered(fx.client, "r"); r.Err != "" || r.Value.I != 75 {
		t.Fatalf("read answered %v (err %q), want the debited 75", r.Value, r.Err)
	}
	if c.FastReads != 1 {
		t.Fatalf("FastReads = %d, want the one read", c.FastReads)
	}
}

// TestFastReadHeldThroughBindingReplay: shard 0's coordinator reboots with
// twelve answered adds to one register in its log, and a read of that
// register arrives while the binding replay re-executes them. Served then,
// it would see the register partly rebuilt — older than what the client
// was already answered; it is held until the replay drains.
func TestFastReadHeldThroughBindingReplay(t *testing.T) {
	fx := newBindingFixture(t, 2, 16)
	key := fx.keys[0]
	for i := 0; i < 12; i++ {
		fx.call(key, "add", interp.IntV(int64(i+1)))
	}
	c := fx.shard.Coordinator()
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.shard.coordID, now, now+10*time.Millisecond)
	fx.runUntil("the binding replay opened", func() bool { return c.Restarts == 1 && c.replayAt >= 0 })
	fx.submit(key, "get")
	id := fmt.Sprintf("b%d", fx.sent)
	fx.runUntil("the read answered", func() bool {
		_, ok := answered(fx.client, id)
		if ok && (c.recovering || c.replayAt >= 0 || len(c.replaying) > 0) {
			t.Fatal("the read was answered before the binding replay drained")
		}
		return ok
	})
	want, _ := fx.serial.State("Reg", key)
	if r, _ := answered(fx.client, id); r.Err != "" || r.Value.I != want["v"].I {
		t.Fatalf("read answered %v (err %q), want the rebuilt %d", r.Value, r.Err, want["v"].I)
	}
	if c.FastReads != 1 || c.BindingReplays != 12 {
		t.Fatalf("FastReads = %d, binding replays = %d: want the one read behind the twelve adds", c.FastReads, c.BindingReplays)
	}
}

// TestFastReadSurvivesAWorkerCrash: reads forwarded to a worker that then
// crashes — while a batch still owes answers from it, so the stall detector
// recovers — are forwarded again once the recovery drains and answered
// exactly once, with no client retry (the raw client never retries).
func TestFastReadSurvivesAWorkerCrash(t *testing.T) {
	const writes = 40
	fx := newBindingFixture(t, 2*writes, 16)
	c := fx.shard.Coordinator()
	for i, key := range fx.keys[:writes] {
		fx.submit(key, "add", interp.IntV(int64(i+1)))
	}
	var victim *Worker
	fx.runUntil("a batch owing an answer", func() bool {
		if st := c.exec; st != nil {
			for _, x := range st.txns {
				if !x.finished {
					victim = fx.shard.workers[fx.shard.OwnerIndex(x.req.Target)]
					return true
				}
			}
		}
		return false
	})
	// Reads of registers nothing writes, homed on the victim.
	reads := map[string]string{} // request id → register
	for _, key := range fx.keys[writes:] {
		if fx.shard.ownerOf(interp.EntityRef{Class: "Reg", Key: key}) == victim.id {
			fx.submit(key, "get")
			reads[fmt.Sprintf("b%d", fx.sent)] = key
		}
	}
	if len(reads) == 0 {
		t.Fatal("fixture: no unwritten register on the victim")
	}
	fx.runUntil("the reads forwarded", func() bool { return len(c.reads) == len(reads) })
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(victim.id, now, now+30*time.Millisecond)
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) >= fx.sent })
	fx.cluster.RunUntil(fx.cluster.Now() + time.Second)

	if c.Recoveries == 0 {
		t.Fatal("the crash never triggered a recovery")
	}
	if len(fx.client.got) != fx.sent {
		t.Fatalf("client saw %d responses to %d calls", len(fx.client.got), fx.sent)
	}
	for id, key := range reads {
		r, _ := answered(fx.client, id)
		if want, _ := fx.serial.State("Reg", key); r.Err != "" || r.Value.I != want["v"].I {
			t.Fatalf("read %s of %s answered %v (err %q), want its preloaded %d", id, key, r.Value, r.Err, want["v"].I)
		}
	}
	if forwards := int(c.readSeq); forwards <= len(reads) || c.FastReads != len(reads) {
		t.Fatalf("%d forwards and %d fast reads for %d reads: want every read forwarded again after the recovery and answered once",
			forwards, c.FastReads, len(reads))
	}
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("rebuilt state is not the serial run: %v", bad)
	}
}

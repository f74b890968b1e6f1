package stateflow

import (
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// A batch's responses leave at its decide, before the workers install it.
// Two orderings make that safe, each placed here by protocol state: a read
// sent after a write's response waits at the owner until the write is
// installed there, and a write whose owner crashes before installing it is
// rebuilt by the recovery's binding replay.

// decideHeldBack deploys one account of 100 on the bank program, holds every
// round-0 decide back from the account's owner for 3 ms, deposits 5 into the
// account and runs until the deposit's response reached the client. It fails
// the test unless the owner still holds the old balance then — otherwise the
// case is vacuous.
func decideHeldBack(t *testing.T) (*sim.Cluster, *ShardedSystem, *rawClient, *Worker) {
	t.Helper()
	cluster, sys := deploy(t, bank, DefaultConfig(), func(preload func(class string, args ...interp.Value)) {
		preload("Account", interp.StrV(acct(0)), interp.IntV(100))
	})
	client := &rawClient{}
	cluster.Add("client", client)
	ref := interp.EntityRef{Class: "Account", Key: acct(0)}
	owner := sys.owner(ref)
	cluster.SetPerturb(func(_, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(*msgDecide); ok && m.Round == 0 && to == owner.id {
			return sim.Perturb{Delay: 3 * time.Millisecond}
		}
		return sim.Perturb{}
	})
	cluster.Start()
	inject(cluster, sys.IngressID(), sysapi.Request{
		Req: "w", Target: ref, Method: "deposit", Args: []interp.Value{interp.IntV(5)}, Kind: "deposit"})
	for i := 0; ; i++ {
		if _, ok := answered(client, "w"); ok {
			break
		}
		if i > 500_000 {
			t.Fatal("the deposit was never answered")
		}
		cluster.RunUntil(cluster.Now() + 20*time.Microsecond)
	}
	if row, _ := owner.committed.Lookup(ref); row == nil {
		t.Fatal("the account is missing at its owner")
	} else if bal := row.CloneMap()["balance"]; bal.I != 100 {
		t.Fatalf("the owner holds balance %d when the deposit is answered: it installed the decide first, so the case is vacuous", bal.I)
	}
	return cluster, sys, client, owner
}

// TestFastReadSeesAWriteAnsweredAheadOfItsInstall: a read sent after the
// deposit's response left, while the owner has not installed the deposit, is
// stamped with the epoch after the deposit's and waits at the owner's gate
// for it, so it returns the deposit.
func TestFastReadSeesAWriteAnsweredAheadOfItsInstall(t *testing.T) {
	cluster, sys, client, _ := decideHeldBack(t)
	inject(cluster, sys.IngressID(), readReq("r", acct(0)))
	cluster.RunUntil(cluster.Now() + time.Second)
	r, ok := answered(client, "r")
	if !ok {
		t.Fatal("the read was never answered")
	}
	if r.Err != "" || r.Value.I != 105 {
		t.Fatalf("read answered %v (err %q) after the deposit's response left, want 105", r.Value, r.Err)
	}
}

// TestReleasedWriteRebuiltWhenItsOwnerCrashesBeforeTheDecide: the owner
// crashes after the deposit's response left and before the held-back decide
// reaches it, so the decide is lost. The stalled apply recovers: every worker
// rolls back to the preload and the binding replay re-executes the released
// deposit — exactly once.
func TestReleasedWriteRebuiltWhenItsOwnerCrashesBeforeTheDecide(t *testing.T) {
	cluster, sys, client, owner := decideHeldBack(t)
	now := cluster.Now()
	cluster.ScheduleCrash(owner.id, now, now+10*time.Millisecond)
	cluster.RunUntil(now + 2*time.Second)
	c := sys.Single().Coordinator()
	if c.Recoveries == 0 || c.BindingReplays != 1 {
		t.Fatalf("recoveries %d, binding replays %d: want the lost decide recovered and the deposit replayed", c.Recoveries, c.BindingReplays)
	}
	if b := balance(t, sys, acct(0)); b != 105 {
		t.Fatalf("balance %d after recovery, want the released deposit exactly once: 105", b)
	}
	if len(client.got) != 1 {
		t.Fatalf("client saw %d responses, want the one deposit", len(client.got))
	}
}

package stateflow

import (
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// The fallback chain's states, placed by protocol state rather than by seed:
// a member leaving a queue from the middle, releases that repeat, arrive late
// or lose the race to the final decide, and a worker lost mid-chain.

// installs counts the workspaces the workers installed.
func installs(sys *System) (n int) {
	for _, w := range sys.workers {
		n += w.Applied
	}
	return n
}

// chainOn returns worker w's progress through the commit epoch's chain
// (nil: none yet).
func chainOn(w *Worker, epoch int64) *aria.Chain {
	if ep := w.epochs[epoch]; ep != nil && ep.chain != nil {
		return &ep.chain.Chain
	}
	return nil
}

// TestChainRefusedTransferLeavesPayeeQueue: a transfer the
// payer cannot fund returns False without ever visiting its payee, yet it is
// queued there — behind a member that is still running. Its release must
// take it out of the payee's queue from where it stands: the member ahead
// keeps the head, the one behind inherits it directly, and the coordinator
// still answers the three in TID order (the journal's serial order).
func TestChainRefusedTransferLeavesPayeeQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	cfg.TraceCommits = true
	cfg.Flight = obs.NewFlightRecorder(0)
	// acct(0) pays twice (T1, then the unfundable T3); acct(9) is everybody's
	// payee. T1 commits in round 0; T2, T3 and T4 conflict with it and chain:
	// acct(9)'s queue is T2, T3, T4.
	script := []sysapi.Scheduled{
		{At: 1 * time.Millisecond, Req: transferReq("t1", acct(0), acct(9), 5)},
		{At: 2 * time.Millisecond, Req: transferReq("t2", acct(1), acct(9), 5)},
		{At: 3 * time.Millisecond, Req: transferReq("t3", acct(0), acct(9), 1000)},
		{At: 4 * time.Millisecond, Req: transferReq("t4", acct(2), acct(9), 5)},
	}
	fx := newFixture(t, cfg, 10, script)
	payee := fx.sys.workers[fx.sys.OwnerIndex(interp.EntityRef{Class: "Account", Key: acct(9)})]
	if payee.id == fx.sys.ownerOf(interp.EntityRef{Class: "Account", Key: acct(0)}) {
		t.Fatal("fixture: payer and payee share a worker; the release would not travel")
	}

	// Step until the payee's owner has released T3 (position 1) with T2
	// (position 0) still queued ahead of it.
	var ch *aria.Chain
	for i := 0; ; i++ {
		if st := fx.sys.coord.commit; st != nil && st.chained() {
			if ch = chainOn(payee, st.epoch); ch != nil && ch.Released(1) {
				break
			}
		}
		if i > 500_000 {
			t.Fatal("never saw the refused transfer released at its payee's owner")
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 5*time.Microsecond)
	}
	plan := ch.Plan
	if len(plan.Members) != 3 || plan.Depth != 3 {
		t.Fatalf("chain: members %v depth %d, want T2 T3 T4 at depth 3", plan.Members, plan.Depth)
	}
	e := plan.Entity(0, interp.EntityRef{Class: "Account", Key: acct(9)})
	if head := ch.Head(e); head != 0 {
		t.Fatalf("payee queue head is member %d after the refused transfer left, want T2 (0) still heading it", head)
	}

	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != 4 {
		t.Fatalf("responses: %d/4", fx.client.Done)
	}
	for id, want := range map[string]bool{"t1": true, "t2": true, "t3": false, "t4": true} {
		if r := fx.client.Responses[id]; r.Err != "" || r.Value.B != want {
			t.Fatalf("%s: value %v err %q, want %v", id, r.Value, r.Err, want)
		}
	}
	if got := balance(t, fx.sys, acct(9)); got != 115 {
		t.Fatalf("payee balance %d, want 115", got)
	}
	if got := balance(t, fx.sys, acct(0)); got != 95 {
		t.Fatalf("refused payer balance %d, want 95", got)
	}
	c := fx.sys.Coordinator()
	if c.EpochsClosed != 1 || c.FallbackChains != 1 || c.FallbackRounds != 3 || c.Aborts != 0 {
		t.Fatalf("epochs %d chains %d rounds %d aborts %d, want one chained epoch of depth 3 with no retry",
			c.EpochsClosed, c.FallbackChains, c.FallbackRounds, c.Aborts)
	}
	lines := 0
	for _, ev := range cfg.Flight.Events() {
		if ev.Kind == "fallback.chain" {
			lines++
		}
	}
	if lines != 1 {
		t.Fatalf("%d fallback.chain flight-recorder lines for one chained epoch", lines)
	}
	serial := c.CommitSerials()
	if !(serial["t1"] < serial["t2"] && serial["t2"] < serial["t3"] && serial["t3"] < serial["t4"]) {
		t.Fatalf("answered out of TID order: %v", serial)
	}
}

// chainRun runs a spaced k-chain of transfers (TID i+1 moves from acct(i) to
// acct(i+1)) in one epoch under perturb and returns the fixture once every
// response is in.
func chainRun(t *testing.T, k int, perturb sim.PerturbFunc) *fixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	fx := newFixture(t, cfg, k+1, chainScript(k, 5, time.Millisecond))
	fx.cluster.SetPerturb(perturb)
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != k {
		t.Fatalf("responses: %d/%d", fx.client.Done, k)
	}
	if c := fx.sys.Coordinator(); c.EpochsClosed != 1 || c.FallbackChains != 1 || c.Recoveries != 0 {
		t.Fatalf("epochs %d chains %d recoveries %d, want one chained epoch", c.EpochsClosed, c.FallbackChains, c.Recoveries)
	}
	assertChainState(t, fx.sys, k, 5)
	return fx
}

// TestChainReleaseDuplicateAndLateAreNoOps: every release is
// duplicated — alternately a moment later, while the chain is still running,
// and long after the epoch's final decide. Neither copy may install a
// workspace again or disturb a queue: the run makes exactly the installs of
// the undisturbed one and ends in the same state.
func TestChainReleaseDuplicateAndLateAreNoOps(t *testing.T) {
	const k = 12
	clean := chainRun(t, k, nil)
	releases := 0
	dup := chainRun(t, k, func(_, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		if _, ok := msg.(msgChainRelease); !ok {
			return sim.Perturb{}
		}
		releases++
		if releases%2 == 0 {
			return sim.Perturb{Duplicate: true, DupDelay: 300 * time.Millisecond}
		}
		return sim.Perturb{Duplicate: true, DupDelay: 40 * time.Microsecond}
	})
	if releases < 4 {
		t.Fatalf("only %d releases crossed workers; the chain never left one partition", releases)
	}
	if got, want := installs(dup.sys), installs(clean.sys); got != want {
		t.Fatalf("%d installs with every release duplicated, %d without", got, want)
	}
}

// TestChainReleaseLosingToTheFinalDecide: the last member's release is held
// up past the end of the epoch. Nobody queues behind the last member, so the
// chain finishes without it; the final decide installs the workspace the
// release would have, and when the release does arrive the epoch is gone and
// nothing is installed twice.
func TestChainReleaseLosingToTheFinalDecide(t *testing.T) {
	const k = 12
	clean := chainRun(t, k, nil)

	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	fx := newFixture(t, cfg, k+1, chainScript(k, 5, time.Millisecond))
	const hold = 100 * time.Millisecond
	var arrives time.Duration
	fx.cluster.SetPerturb(func(_, _ string, at time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(msgChainRelease); ok && m.TID == k { // TIDs 1…k: the chain's tail
			arrives = at + hold
			return sim.Perturb{Delay: hold}
		}
		return sim.Perturb{}
	})
	c := fx.sys.Coordinator()
	for i := 0; c.EpochsClosed == 0; i++ {
		if i > 500_000 {
			t.Fatal("the epoch never closed")
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
	if arrives == 0 || fx.cluster.Now() >= arrives {
		t.Fatalf("the tail's release (due %v) did not lose the race to the final decide (epoch closed by %v)", arrives, fx.cluster.Now())
	}
	atClose := installs(fx.sys)
	if atClose != installs(clean.sys) {
		t.Fatalf("%d installs when the epoch closed, want the undisturbed run's %d: the final decide must install what the release has not", atClose, installs(clean.sys))
	}
	fx.cluster.RunUntil(arrives + time.Second)
	if got := installs(fx.sys); got != atClose {
		t.Fatalf("the late release installed again: %d installs, %d when the epoch closed", got, atClose)
	}
	if fx.client.Done != k {
		t.Fatalf("responses: %d/%d", fx.client.Done, k)
	}
	assertChainState(t, fx.sys, k, 5)
}

// TestChainWorkerCrashMidChain loses a worker while a chain is in flight —
// members answered, members executing, members parked behind them. The
// stalled chain is detected, the system rolls back and replays, and the
// client-edge contract holds: every transfer answered once, the chain's
// serial-order state intact.
func TestChainWorkerCrashMidChain(t *testing.T) {
	const k = 16
	cluster, sys, client := newBurstChain(t, k)
	inner := client.inner

	// Crash the worker holding the most parked members, once some of the
	// chain has been answered and some has not.
	var victim *Worker
	for i := 0; victim == nil; i++ {
		if i > 500_000 {
			t.Fatal("never caught a chain with answered members and parked ones")
		}
		cluster.RunUntil(cluster.Now() + 20*time.Microsecond)
		st := sys.coord.commit
		if st == nil || !st.chained() || st.unfinished < 2 || st.unfinished == len(st.order) {
			continue
		}
		most := 0
		for _, w := range sys.workers {
			parked := 0
			if ep := w.epochs[st.epoch]; ep != nil && ep.chain != nil {
				for _, p := range ep.chain.parked {
					if p.Ev != nil {
						parked++
					}
				}
			}
			if parked > most {
				victim, most = w, parked
			}
		}
	}
	now := cluster.Now()
	cluster.ScheduleCrash(victim.id, now, now+30*time.Millisecond)
	cluster.RunUntil(20 * time.Second)

	c := sys.Coordinator()
	if c.Recoveries == 0 {
		t.Fatal("the lost worker never triggered a recovery")
	}
	if inner.Done != k {
		t.Fatalf("responses: %d/%d", inner.Done, k)
	}
	for id, r := range inner.Responses {
		if r.Err != "" || !r.Value.B {
			t.Fatalf("%s: err=%q value=%v", id, r.Err, r.Value)
		}
	}
	for id, count := range client.Deliveries {
		if allowed := 1 + inner.Retries[id]; count > allowed {
			t.Fatalf("request %s delivered %d times with %d retries (unsolicited duplicate)", id, count, inner.Retries[id])
		}
	}
	assertChainState(t, sys, k, 5)
	if got := fmt.Sprint(c.Failures, c.CorruptLogRecords); got != "0 0" {
		t.Fatalf("failures and corrupt log records: %s, want none", got)
	}
}

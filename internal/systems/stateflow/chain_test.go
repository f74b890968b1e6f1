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
	"statefulentities.dev/stateflow/internal/workload/tpcc"
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
	// (position 0) still queued ahead of it. T3 alone is queued on its
	// payer, so that queue drains exactly when T3 is released.
	var ch *aria.Chain
	payer := interp.EntityRef{Class: "Account", Key: acct(0)}
	for i := 0; ; i++ {
		if st := fx.sys.coord.commit; st != nil && st.chained() {
			if ch = chainOn(payee, st.epoch); ch != nil {
				if e := ch.Plan.Entity(1, payer); e >= 0 && ch.Head(e) == -1 {
					break
				}
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
	if got := balance(t, fx.dep, acct(9)); got != 115 {
		t.Fatalf("payee balance %d, want 115", got)
	}
	if got := balance(t, fx.dep, acct(0)); got != 95 {
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
	serial := c.CommitSerials(nil)
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
	assertChainState(t, fx.dep, k, 5)
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
	assertChainState(t, fx.dep, k, 5)
}

// TestChainWorkerCrashMidChain loses a worker while a chain is in flight —
// members answered, members executing, members parked behind them. The
// stalled chain is detected, the system rolls back and replays, and the
// client-edge contract holds: every transfer answered once, the chain's
// serial-order state intact.
func TestChainWorkerCrashMidChain(t *testing.T) {
	const k = 16
	cluster, dep, client := newBurstChain(t, k)
	inner := client.inner
	sys := dep.Single()

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
					if p.txnEvent != nil {
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
	assertChainState(t, dep, k, 5)
	if got := fmt.Sprint(c.Failures, c.CorruptLogRecords); got != "0 0" {
		t.Fatalf("failures and corrupt log records: %s, want none", got)
	}
}

// Dynamic footprints, placed by state. pick's callee comes out of a list
// argument, chosen by the parity of the receiver's value, so its request
// does not give its footprint: a conflict-aborted pick queues on the
// candidate its first execution called, and re-executed behind a writer of
// the receiver it calls the other one.
const pickers = `
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
    def pick(self, d: int, cands: list[Reg]) -> int:
        to: Reg = cands[self.v % 2]
        self.v += 1
        return to.add(d)
`

func regRef(key string) interp.EntityRef { return interp.EntityRef{Class: "Reg", Key: key} }

func regReq(id, key, method string, args ...interp.Value) sysapi.Request {
	return sysapi.Request{Req: id, Target: regRef(key), Method: method, Args: args}
}

func pickReq(id, key string, d int64, cands ...string) sysapi.Request {
	refs := make([]interp.Value, len(cands))
	for i, c := range cands {
		refs[i] = interp.RefV("Reg", c)
	}
	return regReq(id, key, "pick", interp.IntV(d), interp.ListV(refs...))
}

func regValue(t *testing.T, sys *ShardedSystem, key string) int64 {
	t.Helper()
	st, ok := sys.EntityState("Reg", key)
	if !ok {
		t.Fatalf("register %s missing", key)
	}
	return st["v"].I
}

// newPickFixture deploys the pickers with hub at 0 and c0, c1 at 100, and
// spaces script one millisecond apart in one 50 ms epoch, so TID order is
// script order.
func newPickFixture(t *testing.T, reqs ...sysapi.Request) *fixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	cfg.Flight = obs.NewFlightRecorder(0)
	script := make([]sysapi.Scheduled, len(reqs))
	for i, r := range reqs {
		script[i] = sysapi.Scheduled{At: time.Duration(i+1) * time.Millisecond, Req: r}
	}
	return newProgFixture(t, pickers, cfg, func(preload func(class string, args ...interp.Value)) {
		preload("Reg", interp.StrV("hub"), interp.IntV(0))
		preload("Reg", interp.StrV("c0"), interp.IntV(100))
		preload("Reg", interp.StrV("c1"), interp.IntV(100))
	}, script)
}

// driftRun runs the drift scenario under perturb and checks its one outcome.
// The batch, in TID order:
//
//	T1 hub.add(1)              commits in round 0; hub turns odd
//	T2 c1.add(1)               commits in round 0
//	T3 hub.pick(5, [c0, c1])   lost to T1; round 0 read hub even and called c0
//	T4 c1.add(7)               lost to T2
//
// The chain queues T3 on {hub, c0} and T4 on {c1}. T3's re-execution reads
// hub odd and calls c1, where nothing ordered it against T4: it must not run
// there. It leaves the chain — the hub write of its first hop installed
// nowhere, T4 untouched — is not answered by that epoch and commits in the
// next batch with one retry. perturb, if any, makes the run's perturbation;
// atClose runs when the chained epoch has closed.
func driftRun(t *testing.T, perturb func(fx *fixture) sim.PerturbFunc, atClose func(fx *fixture)) {
	t.Helper()
	fx := newPickFixture(t,
		regReq("t1", "hub", "add", interp.IntV(1)),
		regReq("t2", "c1", "add", interp.IntV(1)),
		pickReq("t3", "hub", 5, "c0", "c1"),
		regReq("t4", "c1", "add", interp.IntV(7)))
	if perturb != nil {
		fx.cluster.SetPerturb(perturb(fx))
	}
	c := fx.sys.Coordinator()
	for i := 0; c.EpochsClosed == 0; i++ {
		if i > 500_000 {
			t.Fatal("the epoch never closed")
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
	if c.FallbackChains != 1 || c.FallbackDriftDemotions != 1 || c.Aborts != 1 || c.FallbackCommits != 1 {
		t.Fatalf("chains %d drifted %d aborts %d rescued %d when the epoch closed, want one chain that rescued T4 and let T3 go",
			c.FallbackChains, c.FallbackDriftDemotions, c.Aborts, c.FallbackCommits)
	}
	if _, staged := c.journal.delivered("t3"); staged {
		t.Fatal("the drifted pick was answered by the epoch it drifted in")
	}
	if hub, c0, c1 := regValue(t, fx.dep, "hub"), regValue(t, fx.dep, "c0"), regValue(t, fx.dep, "c1"); hub != 1 || c0 != 100 || c1 != 108 {
		t.Fatalf("hub %d c0 %d c1 %d when the epoch closed, want 1 100 108: the drifted pick's first hop was installed, or T4 was disturbed", hub, c0, c1)
	}
	if got := installs(fx.sys); got != 3 {
		t.Fatalf("%d workspaces installed when the epoch closed, want T1, T2 and T4", got)
	}
	if atClose != nil {
		atClose(fx)
	}
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != 4 {
		t.Fatalf("responses: %d/4", fx.client.Done)
	}
	for id, want := range map[string]struct {
		value   int64
		retries int
	}{"t1": {1, 0}, "t2": {101, 0}, "t3": {113, 1}, "t4": {108, 0}} {
		if r := fx.client.Responses[id]; r.Err != "" || r.Value.I != want.value || r.Retries != want.retries {
			t.Fatalf("%s: value %v err %q retries %d, want %d after %d retries", id, r.Value, r.Err, r.Retries, want.value, want.retries)
		}
	}
	if hub, c0, c1 := regValue(t, fx.dep, "hub"), regValue(t, fx.dep, "c0"), regValue(t, fx.dep, "c1"); hub != 2 || c0 != 100 || c1 != 113 {
		t.Fatalf("hub %d c0 %d c1 %d, want 2 100 113", hub, c0, c1)
	}
	if c.EpochsClosed != 2 || c.FallbackDriftDemotions != 1 || c.Aborts != 1 || c.Failures != 0 {
		t.Fatalf("epochs %d drifted %d aborts %d failures %d, want the retry alone in a second epoch",
			c.EpochsClosed, c.FallbackDriftDemotions, c.Aborts, c.Failures)
	}
	lines := 0
	for _, ev := range fx.sys.cfg.Flight.Events() {
		if ev.Kind == "fallback.drift" {
			lines++
		}
	}
	if lines != 1 {
		t.Fatalf("%d fallback.drift flight-recorder lines for one drifted member", lines)
	}
}

// TestChainDriftRetriesInNextBatch: the drift rule itself (see driftRun).
func TestChainDriftRetriesInNextBatch(t *testing.T) { driftRun(t, nil, nil) }

// TestChainDriftReportDuplicateAndLateAreNoOps: the drift report reaches the
// coordinator three more times — a moment after the original, with the chain
// still in flight; between the chain's final decide and its last applied ack;
// and after the epoch has closed. The member is counted, retried and charged
// a retry once.
func TestChainDriftReportDuplicateAndLateAreNoOps(t *testing.T) {
	var report sim.Message
	decided := false
	driftRun(t, func(fx *fixture) sim.PerturbFunc {
		return func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
			switch m := msg.(type) {
			case msgChainRelease:
				if to == fx.sys.coordID && report == nil {
					report = m
					return sim.Perturb{Duplicate: true, DupDelay: 40 * time.Microsecond}
				}
			case *msgDecide:
				if m.Round == 1 && !decided {
					decided = true // the chain's final decide is leaving: every member is accounted for
					fx.cluster.Inject(fx.cluster.Now(), from, fx.sys.coordID, report)
				}
			}
			return sim.Perturb{}
		}
	}, func(fx *fixture) {
		fx.cluster.Inject(fx.cluster.Now(), fx.sys.workerIDs[0], fx.sys.coordID, report)
	})
	if report == nil || !decided {
		t.Fatalf("report seen: %v, final decide seen: %v", report != nil, decided)
	}
}

// TestChainDriftDoesNotHoldSuccessors: the drifting pick is the first of
// three members queued on the hub (depth 1 of a depth-3 chain). It leaves the
// hub's queue the moment it drifts, so the two adds behind it run, commit and
// are answered in that same epoch — no retry — and the pick follows them in
// the next batch.
func TestChainDriftDoesNotHoldSuccessors(t *testing.T) {
	fx := newPickFixture(t,
		regReq("t1", "hub", "add", interp.IntV(1)),
		pickReq("t2", "hub", 5, "c0", "c1"),
		regReq("t3", "hub", "add", interp.IntV(2)),
		regReq("t4", "hub", "add", interp.IntV(3)))
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != 4 {
		t.Fatalf("responses: %d/4", fx.client.Done)
	}
	// Serially: add 1, add 2, add 3, then the pick reads hub at 6 and calls c0.
	for id, want := range map[string]struct {
		value   int64
		retries int
	}{"t1": {1, 0}, "t2": {105, 1}, "t3": {3, 0}, "t4": {6, 0}} {
		if r := fx.client.Responses[id]; r.Err != "" || r.Value.I != want.value || r.Retries != want.retries {
			t.Fatalf("%s: value %v err %q retries %d, want %d after %d retries", id, r.Value, r.Err, r.Retries, want.value, want.retries)
		}
	}
	c := fx.sys.Coordinator()
	if c.EpochsClosed != 2 || c.FallbackChains != 1 || c.FallbackRounds != 3 || c.FallbackCommits != 2 || c.FallbackDriftDemotions != 1 {
		t.Fatalf("epochs %d chains %d rounds %d rescued %d drifted %d, want one depth-3 chain that rescued both adds",
			c.EpochsClosed, c.FallbackChains, c.FallbackRounds, c.FallbackCommits, c.FallbackDriftDemotions)
	}
	if hub, c0, c1 := regValue(t, fx.dep, "hub"), regValue(t, fx.dep, "c0"), regValue(t, fx.dep, "c1"); hub != 7 || c0 != 105 || c1 != 100 {
		t.Fatalf("hub %d c0 %d c1 %d, want 7 105 100", hub, c0, c1)
	}
}

// TestChainDynamicMembersThatStay: the two dynamic members that cannot
// drift. A constructor that lost to an earlier one of the same key queues on
// that key and, re-executed, finds it taken — a definitive error — while the
// add behind it, which round 0 had failed on the missing register, succeeds.
// And of two TPC-C orders on one district (the stock refs sit inside a list
// argument) the second queues on the rows its first execution touched and
// takes the next order id.
func TestChainDynamicMembersThatStay(t *testing.T) {
	t.Run("init", func(t *testing.T) {
		create := func(id string, v int64) sysapi.Request {
			return regReq(id, "new", "__init__", interp.StrV("new"), interp.IntV(v))
		}
		fx := newPickFixture(t, create("t1", 5), create("t2", 9), regReq("t3", "new", "add", interp.IntV(1)))
		fx.cluster.RunUntil(5 * time.Second)
		if fx.client.Done != 3 {
			t.Fatalf("responses: %d/3", fx.client.Done)
		}
		if r := fx.client.Responses["t1"]; r.Err != "" {
			t.Fatalf("t1: %q", r.Err)
		}
		if r := fx.client.Responses["t2"]; r.Err == "" || r.Retries != 0 {
			t.Fatalf("t2: value %v err %q retries %d, want the chain's own \"already exists\"", r.Value, r.Err, r.Retries)
		}
		if r := fx.client.Responses["t3"]; r.Err != "" || r.Value.I != 6 || r.Retries != 0 {
			t.Fatalf("t3: value %v err %q retries %d, want 6 from the chain", r.Value, r.Err, r.Retries)
		}
		c := fx.sys.Coordinator()
		if c.EpochsClosed != 1 || c.FallbackChains != 1 || c.FallbackRounds != 2 || c.FallbackDriftDemotions != 0 || c.Aborts != 0 {
			t.Fatalf("epochs %d chains %d rounds %d drifted %d aborts %d, want one depth-2 chain and nothing retried",
				c.EpochsClosed, c.FallbackChains, c.FallbackRounds, c.FallbackDriftDemotions, c.Aborts)
		}
	})
	t.Run("new_order", func(t *testing.T) {
		scale := tpcc.Scale{Warehouses: 1, DistrictsPerWH: 1, CustomersPerDist: 2, Items: 6}
		cfg := DefaultConfig()
		cfg.EpochInterval = 50 * time.Millisecond
		fx := newProgFixture(t, tpcc.Program(), cfg, func(preload func(class string, args ...interp.Value)) {
			_ = scale.Load(func(class string, args []interp.Value) error { preload(class, args...); return nil }) // preload fails the test itself
		}, []sysapi.Scheduled{
			{At: 1 * time.Millisecond, Req: newOrderReq("o1", 0, 1, 2)},
			{At: 2 * time.Millisecond, Req: newOrderReq("o2", 1, 3, 4)},
		})
		fx.cluster.RunUntil(5 * time.Second)
		for id, want := range map[string]int64{"o1": 1, "o2": 2} {
			if r := fx.client.Responses[id]; r.Err != "" || r.Value.I != want || r.Retries != 0 {
				t.Fatalf("%s: order id %v err %q retries %d, want %d", id, r.Value, r.Err, r.Retries, want)
			}
		}
		d, _ := fx.dep.EntityState("District", tpcc.DistrictKey(0, 0))
		if d["next_o_id"].I != 3 {
			t.Fatalf("next_o_id %d after two orders, want 3", d["next_o_id"].I)
		}
		c := fx.sys.Coordinator()
		if c.EpochsClosed != 1 || c.FallbackChains != 1 || c.FallbackCommits != 1 || c.FallbackDriftDemotions != 0 {
			t.Fatalf("epochs %d chains %d rescued %d drifted %d, want the second order rescued by one chain",
				c.EpochsClosed, c.FallbackChains, c.FallbackCommits, c.FallbackDriftDemotions)
		}
	})
}

// newOrderReq orders one unit of each listed item of warehouse 0 for
// customer c of district 0.
func newOrderReq(id string, c int, items ...int) sysapi.Request {
	stocks, qtys := make([]interp.Value, len(items)), make([]interp.Value, len(items))
	for i, it := range items {
		stocks[i], qtys[i] = interp.RefV("Stock", tpcc.StockKey(0, it)), interp.IntV(1)
	}
	return sysapi.Request{Req: id, Target: interp.EntityRef{Class: "District", Key: tpcc.DistrictKey(0, 0)},
		Method: "new_order", Args: []interp.Value{
			interp.RefV("Customer", tpcc.CustomerKey(0, 0, c)), interp.RefV("Warehouse", tpcc.WarehouseKey(0)),
			interp.ListV(stocks...), interp.ListV(qtys...)}}
}

// TestCoordinatorCrashMidDynamicChain is TestCoordinatorCrashMidFallback with
// dynamic members in flight: a burst of orders on one district chains sixteen
// deep, every member queued on what round 0 observed, and the coordinator
// dies with some answered and the rest executing or parked. The binding
// replay rebuilds what the released order ids promised, the rest re-run, and
// the district hands out each id once.
func TestCoordinatorCrashMidDynamicChain(t *testing.T) {
	const k = 16
	scale := tpcc.Scale{Warehouses: 1, DistrictsPerWH: 1, CustomersPerDist: k, Items: 2 * k}
	script := make([]sysapi.Scheduled, k)
	for i := range script {
		script[i] = sysapi.Scheduled{At: time.Millisecond, Req: newOrderReq(fmt.Sprintf("o%d", i), i, 2*i, 2*i+1)}
	}
	cluster, sys, counting := newBurst(t, tpcc.Program(), func(preload func(class string, args ...interp.Value)) {
		_ = scale.Load(func(class string, args []interp.Value) error { preload(class, args...); return nil }) // preload fails the test itself
	}, script)
	client := counting.inner
	crashCoordinatorMidChain(t, cluster, sys.Single())
	if client.Done != k {
		t.Fatalf("responses: %d/%d", client.Done, k)
	}
	ids := map[int64]string{}
	for id, r := range client.Responses {
		if r.Err != "" || r.Value.I < 1 || r.Value.I > k {
			t.Fatalf("%s: err=%q order id %v", id, r.Err, r.Value)
		}
		if other, dup := ids[r.Value.I]; dup {
			t.Fatalf("%s and %s both hold order id %d", other, id, r.Value.I)
		}
		ids[r.Value.I] = id
	}
	for id, count := range counting.Deliveries {
		if allowed := 1 + client.Retries[id]; count > allowed {
			t.Fatalf("request %s delivered %d times with %d retries (unsolicited duplicate)", id, count, client.Retries[id])
		}
	}
	d, _ := sys.EntityState("District", tpcc.DistrictKey(0, 0))
	if d["next_o_id"].I != k+1 {
		t.Fatalf("next_o_id %d after %d orders, want %d", d["next_o_id"].I, k, k+1)
	}
	for i := 0; i < 2*k; i++ {
		if s, _ := sys.EntityState("Stock", tpcc.StockKey(0, i)); s["order_cnt"].I != 1 {
			t.Fatalf("stock %d was taken from %d times, want once", i, s["order_cnt"].I)
		}
	}
	if c := sys.Single().Coordinator(); c.FallbackDriftDemotions != 0 || c.Failures != 0 || c.CorruptLogRecords != 0 {
		t.Fatalf("drifted %d failures %d corrupt log records %d, want none", c.FallbackDriftDemotions, c.Failures, c.CorruptLogRecords)
	}
}

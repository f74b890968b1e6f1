package stateflow

import (
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// chainScript submits the canonical conflict chain: t_i transfers from
// acct(i) to acct(i+1), so every transaction shares an account with its
// predecessor (WAW on the shared balance slot) and standard Aria
// validation commits only the head of the chain per batch. A spacing
// wider than the client-link jitter keeps arrival order — and therefore
// TID order — equal to chain order; zero spacing submits one burst whose
// TIDs permute under the jitter (the conflict graph is the same either
// way).
func chainScript(k int, amount int64, spacing time.Duration) []sysapi.Scheduled {
	script := make([]sysapi.Scheduled, 0, k)
	for i := 0; i < k; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Millisecond + time.Duration(i)*spacing,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(i), acct(i+1), amount),
		})
	}
	return script
}

// assertChainState checks the serial-order outcome of a fully committed
// k-chain of transfers of `amount`: the head loses the amount, the tail
// gains it, everyone in between breaks even.
func assertChainState(t *testing.T, sys *ShardedSystem, k int, amount int64) {
	t.Helper()
	for i := 0; i <= k; i++ {
		want := int64(100)
		switch i {
		case 0:
			want -= amount
		case k:
			want += amount
		}
		if got := balance(t, sys, acct(i)); got != want {
			t.Fatalf("%s: balance %d, want %d", acct(i), got, want)
		}
	}
}

// TestChainDrainsInOneBatchWithFallback is the fallback phase's headline
// property: a k-chain of conflicting transfers submitted into one batch
// commits IN FULL in that batch — the head through standard validation,
// every dependent through deterministic re-execution rounds — with zero
// next-batch retries. Without the fallback the same workload needs k
// batches (pinned by the companion test below).
func TestChainDrainsInOneBatchWithFallback(t *testing.T) {
	const k = 32
	cfg := DefaultConfig()
	// One epoch long enough to absorb the whole spaced chain: TID order
	// equals chain order, so the batch is the pure-chain worst case.
	cfg.EpochInterval = 50 * time.Millisecond
	fx := newFixture(t, cfg, k+1, chainScript(k, 5, time.Millisecond))
	fx.cluster.RunUntil(5 * time.Second)

	if fx.client.Done != k {
		t.Fatalf("responses: %d/%d", fx.client.Done, k)
	}
	for id, r := range fx.client.Responses {
		if r.Err != "" || !r.Value.B {
			t.Fatalf("%s: err=%q value=%v", id, r.Err, r.Value)
		}
		// The PR 4 retry-budget pathology is gone: no chain member burns
		// retries climbing through one-commit-per-batch drains.
		if r.Retries != 0 {
			t.Fatalf("%s: %d retries, want 0 (fallback should commit in-batch)", id, r.Retries)
		}
	}
	c := fx.sys.Coordinator()
	if c.EpochsClosed != 1 {
		t.Fatalf("batches: %d, want 1 (chain must drain in O(1) batches)", c.EpochsClosed)
	}
	if c.Commits != k {
		t.Fatalf("commits: %d, want %d", c.Commits, k)
	}
	if c.FallbackCommits != k-1 {
		t.Fatalf("fallback commits: %d, want %d", c.FallbackCommits, k-1)
	}
	if c.FallbackRounds != k-1 {
		t.Fatalf("fallback rounds: %d, want %d (a pure chain re-executes one per round)",
			c.FallbackRounds, k-1)
	}
	if c.Aborts != 0 {
		t.Fatalf("next-batch retries: %d, want 0", c.Aborts)
	}
	assertChainState(t, fx.dep, k, 5)
}

// TestChainOnePerBatchWithoutFallback pins the legacy behavior the
// fallback replaces — and that the two modes converge to byte-identical
// committed state: the chain drains exactly one commit per batch, the
// tail transaction pays k-1 retries, and the final balances match the
// fallback run's.
func TestChainOnePerBatchWithoutFallback(t *testing.T) {
	const k = 32
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	cfg.DisableFallback = true
	fx := newFixture(t, cfg, k+1, chainScript(k, 5, time.Millisecond))
	fx.cluster.RunUntil(10 * time.Second)

	if fx.client.Done != k {
		t.Fatalf("responses: %d/%d", fx.client.Done, k)
	}
	c := fx.sys.Coordinator()
	if c.EpochsClosed != k {
		t.Fatalf("batches: %d, want %d (one commit per batch without fallback)", c.EpochsClosed, k)
	}
	if c.Commits != k || c.FallbackCommits != 0 {
		t.Fatalf("commits: %d (fallback %d), want %d (0)", c.Commits, c.FallbackCommits, k)
	}
	// The retry-budget pathology the fallback removes: retry counts climb
	// linearly down the chain.
	maxRetries := 0
	for _, r := range fx.client.Responses {
		if r.Retries > maxRetries {
			maxRetries = r.Retries
		}
	}
	if maxRetries != k-1 {
		t.Fatalf("max retries: %d, want %d (linear climb down the chain)", maxRetries, k-1)
	}
	// Byte-identical final committed state across both modes.
	assertChainState(t, fx.dep, k, 5)
}

// TestFallbackDifferentialContendedState runs a contended random transfer
// mix (not a pure chain: fans, chains and disjoint clusters) with the
// fallback on and off and asserts the committed state of every account is
// byte-identical: the fallback's re-execution rounds replay exactly the
// serial order the legacy one-batch-per-round retry drain would have
// produced.
func TestFallbackDifferentialContendedState(t *testing.T) {
	const accounts, transfers = 8, 48
	script := make([]sysapi.Scheduled, 0, transfers)
	for i := 0; i < transfers; i++ {
		from := (i * 5) % accounts
		to := (from + 1 + (i*3)%(accounts-1)) % accounts
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(1+i/16) * time.Millisecond, // three bursts
			Req: transferReq(fmt.Sprintf("t%d", i), acct(from), acct(to), int64(1+i%7)),
		})
	}
	run := func(disable bool) (*ShardedSystem, map[string]sysapi.Response) {
		cfg := DefaultConfig()
		cfg.EpochInterval = 5 * time.Millisecond
		cfg.DisableFallback = disable
		fx := newFixture(t, cfg, accounts, script)
		fx.cluster.RunUntil(10 * time.Second)
		if fx.client.Done != transfers {
			t.Fatalf("disable=%v: responses %d/%d", disable, fx.client.Done, transfers)
		}
		return fx.dep, fx.client.Responses
	}
	on, onResp := run(false)
	off, offResp := run(true)
	for i := 0; i < accounts; i++ {
		if got, want := balance(t, on, acct(i)), balance(t, off, acct(i)); got != want {
			t.Fatalf("%s: fallback-on balance %d != fallback-off %d", acct(i), got, want)
		}
	}
	for id, a := range onResp {
		b, ok := offResp[id]
		if !ok {
			t.Fatalf("%s: missing without fallback", id)
		}
		if a.Err != b.Err || a.Value.Repr() != b.Value.Repr() {
			t.Fatalf("%s: outcome diverges: on=(%s,%q) off=(%s,%q)",
				id, a.Value.Repr(), a.Err, b.Value.Repr(), b.Err)
		}
	}
	if on.Single().Coordinator().FallbackCommits == 0 {
		t.Fatal("differential run never exercised the fallback phase")
	}
}

// newBurstChain deploys the crash cases' scenario and starts it: a k-chain
// of transfers submitted in one burst (TIDs permute under the link jitter;
// the conflict graph is the chain either way).
func newBurstChain(t *testing.T, k int) (*sim.Cluster, *ShardedSystem, *countingClient) {
	t.Helper()
	return newBurst(t, bank, func(preload func(class string, args ...interp.Value)) {
		for i := 0; i <= k; i++ {
			preload("Account", interp.StrV(acct(i)), interp.IntV(100))
		}
	}, chainScript(k, 5, 0))
}

// newBurst deploys src with what load preloads and starts script against 5 ms
// epochs with frequent snapshots, from a retrying, delivery-counting client —
// a response whose delivered-record synced right before a crash is
// suppressed by the replay and must be solicited back from the egress buffer.
func newBurst(t *testing.T, src string, load func(preload func(class string, args ...interp.Value)), script []sysapi.Scheduled) (*sim.Cluster, *ShardedSystem, *countingClient) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EpochInterval = 5 * time.Millisecond
	cfg.SnapshotEvery = 2
	cluster, sys := deploy(t, src, cfg, load)
	inner := sysapi.NewScriptClient("client", sys, script)
	inner.RetryEvery = 20 * time.Millisecond
	client := &countingClient{inner: inner, Deliveries: map[string]int{}}
	cluster.Add("client", client)
	cluster.Start()
	return cluster, sys, client
}

// crashCoordinatorMidChain steps finely until a chain is mid-flight — some
// members' responses already released to the client, work still outstanding
// — then takes the coordinator down for 30 ms and runs the recovery out.
func crashCoordinatorMidChain(t *testing.T, cluster *sim.Cluster, sys *System) {
	t.Helper()
	released := func(st *epochState) (n int) {
		for _, tid := range st.chain.Plan.Members {
			if _, ok := sys.coord.journal.delivered(st.txn(tid).req.Req); ok {
				n++
			}
		}
		return n
	}
	for i := 0; ; i++ {
		if st := sys.coord.commit; st != nil && st.chained() && st.unfinished >= 2 && released(st) >= 2 {
			break
		}
		if i > 500_000 {
			t.Fatal("never caught the coordinator mid-fallback")
		}
		cluster.RunUntil(cluster.Now() + 20*time.Microsecond)
	}
	cluster.Crash("sf-coord")
	cluster.RunUntil(cluster.Now() + 30*time.Millisecond)
	cluster.Restart("sf-coord")
	cluster.RunUntil(20 * time.Second)

	c := sys.Coordinator()
	if c.Restarts == 0 {
		t.Fatal("coordinator never rebooted from the log")
	}
	if c.BindingReplays == 0 {
		t.Fatal("no chain member's response was durable at the crash: the replay of a half-answered chain was never exercised")
	}
}

// TestCoordinatorCrashMidFallback kills the coordinator while a fallback
// chain is in flight — some members answered (their responses staged or
// already released), the rest still executing or parked on the workers: the
// reboot from the durable log must recover to a consistent decide — the
// binding replay rebuilds what the released responses promised, the replay
// re-runs the rest of the batch (fallback included), the delivered-buffer
// suppresses duplicate responses, and the chain still commits with its
// serial-order state intact.
func TestCoordinatorCrashMidFallback(t *testing.T) {
	const k = 16
	cluster, sys, counting := newBurstChain(t, k)
	client := counting.inner
	crashCoordinatorMidChain(t, cluster, sys.Single())
	if client.Done != k {
		t.Fatalf("responses: %d/%d", client.Done, k)
	}
	for id, r := range client.Responses {
		if r.Err != "" || !r.Value.B {
			t.Fatalf("%s: err=%q value=%v", id, r.Err, r.Value)
		}
	}
	assertChainState(t, sys, k, 5)
}

// TestFallbackDrainsUnderfundedChain: a transaction whose re-execution
// surfaces an application outcome (here: the funds check failing against
// the post-rescue balances) must respond with that outcome instead of
// retrying forever — fallback re-execution follows the same response
// contract as a first execution.
func TestFallbackDrainsUnderfundedChain(t *testing.T) {
	// acct(0) starts with 100; three transfers of 60 out of the shared
	// account conflict pairwise. Serially only the first succeeds; the
	// second and third must return False (insufficient funds) from their
	// fallback re-executions — deterministically, in TID order.
	script := []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t0", acct(0), acct(1), 60)},
		{At: time.Millisecond, Req: transferReq("t1", acct(0), acct(2), 60)},
		{At: time.Millisecond, Req: transferReq("t2", acct(0), acct(3), 60)},
	}
	cfg := DefaultConfig()
	cfg.EpochInterval = 5 * time.Millisecond
	fx := newFixture(t, cfg, 4, script)
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != 3 {
		t.Fatalf("responses: %d/3", fx.client.Done)
	}
	var trues int
	for id, r := range fx.client.Responses {
		if r.Err != "" {
			t.Fatalf("%s: unexpected error %q", id, r.Err)
		}
		if r.Value.B {
			trues++
		}
	}
	if trues != 1 {
		t.Fatalf("%d transfers succeeded, want exactly 1 (funds bound)", trues)
	}
	if got := balance(t, fx.dep, acct(0)); got != 40 {
		t.Fatalf("acct-000 balance: %d, want 40", got)
	}
	if fx.sys.Coordinator().EpochsClosed != 1 {
		t.Fatalf("batches: %d, want 1", fx.sys.Coordinator().EpochsClosed)
	}
}

// TestFallbackRoundBudgetSpillsChain caps the fallback at a handful of
// re-execution rounds and feeds it the worst case the cap exists for: a
// pure conflict chain, whose unbudgeted drain is one round per member
// (pinned above as FallbackRounds == k-1). With budget b, each epoch
// commits 1 (standard validation) + b (one per fallback round) chain
// members, then spills the remainder TID-ordered into the next batch's
// retry queue — so the epoch pipeline keeps turning at a bounded round
// count per epoch and the chain still drains to the same serial-order
// state, just across several batches.
func TestFallbackRoundBudgetSpillsChain(t *testing.T) {
	const k, budget = 16, 4
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	cfg.FallbackRoundBudget = budget
	fx := newFixture(t, cfg, k+1, chainScript(k, 5, time.Millisecond))
	fx.cluster.RunUntil(5 * time.Second)

	if fx.client.Done != k {
		t.Fatalf("responses: %d/%d", fx.client.Done, k)
	}
	spilled := 0
	for id, r := range fx.client.Responses {
		if r.Err != "" || !r.Value.B {
			t.Fatalf("%s: err=%q value=%v", id, r.Err, r.Value)
		}
		if r.Retries > 0 {
			spilled++
		}
	}
	c := fx.sys.Coordinator()
	// 16 members drain 1+4 per epoch: 16 → 11 → 6 → 1, four batches.
	if c.EpochsClosed != 4 {
		t.Fatalf("batches: %d, want 4 (chain should drain 1+budget per epoch)", c.EpochsClosed)
	}
	if c.FallbackSpills != 18 { // 11 + 6 + 1 evictions across the drain
		t.Fatalf("fallback spills: %d, want 18", c.FallbackSpills)
	}
	if max := c.EpochsClosed * budget; c.FallbackRounds > max {
		t.Fatalf("fallback rounds: %d, budget allows at most %d", c.FallbackRounds, max)
	}
	if c.Commits != k || c.Failures != 0 {
		t.Fatalf("commits: %d failures: %d, want %d/0", c.Commits, c.Failures, k)
	}
	// Spilled members surface their eviction count as ordinary retries —
	// the same client-visible contract as a validation abort.
	if spilled == 0 {
		t.Fatal("no response carried retries > 0; the spill path never round-tripped")
	}
	assertChainState(t, fx.dep, k, 5)
}

// TestHotKeyVirtualTimeBudget holds what a client sees of contention — the
// benchmark's hot_t shape in one deterministic run: all transfers on Zipfian
// keys over 1000 rows of 1 KB, open loop at 600 req/s for 10 virtual
// seconds, a quarter of them touching the hottest account. With the
// conflict aborts re-executing as per-entity chains p99 stays near 50 ms;
// behind barrier rounds — one coordinator-mediated prepare/vote/decide wave
// per hot-key commit — the same offered load was past the knee (490 req/s)
// and p99 was measured in seconds.
func TestHotKeyVirtualTimeBudget(t *testing.T) {
	const (
		records = 1000
		rate    = 600
		horizon = 10 * time.Second
		budget  = 100 * time.Millisecond
	)
	prog, err := compiler.Compile(ycsb.Program())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(1)
	sys := New(cluster, prog, DefaultConfig())
	load := ycsb.Loader(records, 1000)
	for i := 0; i < records; i++ {
		class, args := load(i)
		if err := sys.PreloadEntity(class, args...); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	chooser, err := ycsb.ChooserByName("zipfian", records)
	if err != nil {
		t.Fatal(err)
	}
	wgen := ycsb.NewGenerator(ycsb.WorkloadT, chooser, records, 18, "q")
	gen := sysapi.NewGenerator("client", sys, rate, horizon, horizon/10, wgen.Next)
	cluster.Add("client", gen)
	cluster.Start()
	cluster.RunUntil(horizon + 10*time.Second)

	c := sys.Single().Coordinator()
	lat := gen.Latency.Snapshot()
	t.Logf("p50 %v p99 %v over %d transfers: %d epochs, %d chained, %d rounds, %d rescued",
		lat.P50, lat.P99, gen.Done, c.EpochsClosed, c.FallbackChains, c.FallbackRounds, c.FallbackCommits)
	if gen.Done != gen.Submitted || gen.Errors != 0 || c.Failures != 0 {
		t.Fatalf("%d of %d answered, %d errors, %d failures", gen.Done, gen.Submitted, gen.Errors, c.Failures)
	}
	if c.FallbackChains == 0 || c.FallbackDriftDemotions != 0 {
		t.Fatalf("%d chained epochs, %d drift demotions: every transfer's footprint is static, so every contended epoch should chain",
			c.FallbackChains, c.FallbackDriftDemotions)
	}
	if lat.P99 > budget {
		t.Fatalf("p99 %v at %d req/s, budget %v", lat.P99, rate, budget)
	}
}

// TestDynamicFootprintVirtualTimeBudget holds the other kind of chain member
// the way TestHotKeyVirtualTimeBudget holds the static one: TPC-C's
// District.new_order takes its stock entities inside a list argument, so its
// request does not give its footprint and a conflict-aborted order queues on
// what its first execution observed. Two warehouses of two districts put
// every order and payment on one of four districts and two warehouse rows:
// open loop at 200 req/s for 10 virtual seconds most epochs abort somebody.
// On the chain p99 stays near 0.4 s; one coordinator-mediated
// prepare/vote/decide wave per district step would put it at 2.4 s.
func TestDynamicFootprintVirtualTimeBudget(t *testing.T) {
	const (
		rate    = 200
		horizon = 10 * time.Second
		budget  = time.Second
	)
	prog, err := compiler.Compile(tpcc.Program())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if prog.RefClosed("District", "new_order") {
		t.Fatal("new_order is ref-closed: the workload no longer has a dynamic footprint")
	}
	cluster := sim.New(1)
	sys := New(cluster, prog, DefaultConfig())
	scale := tpcc.Scale{Warehouses: 2, DistrictsPerWH: 2, CustomersPerDist: 10, Items: 50}
	if err := scale.Load(func(class string, args []interp.Value) error {
		return sys.PreloadEntity(class, args...)
	}); err != nil {
		t.Fatalf("preload: %v", err)
	}
	sys.CheckpointPreloadedState()
	wgen := tpcc.NewGenerator(scale, 18, "q")
	gen := sysapi.NewGenerator("client", sys, rate, horizon, horizon/10, wgen.Next)
	cluster.Add("client", gen)
	cluster.Start()
	cluster.RunUntil(horizon + 20*time.Second)

	c := sys.Single().Coordinator()
	lat := gen.Latency.Snapshot()
	t.Logf("p50 %v p99 %v over %d transactions: %d epochs, %d chained, %d rounds, %d rescued, %d drifted",
		lat.P50, lat.P99, gen.Done, c.EpochsClosed, c.FallbackChains, c.FallbackRounds, c.FallbackCommits, c.FallbackDriftDemotions)
	if gen.Done != gen.Submitted || gen.Errors != 0 || c.Failures != 0 {
		t.Fatalf("%d of %d answered, %d errors, %d failures", gen.Done, gen.Submitted, gen.Errors, c.Failures)
	}
	if c.FallbackChains == 0 || c.FallbackDriftDemotions != 0 {
		t.Fatalf("%d chained epochs, %d drift demotions: an order's stock list does not depend on what it reads, so it chains and never drifts",
			c.FallbackChains, c.FallbackDriftDemotions)
	}
	if lat.P99 > budget {
		t.Fatalf("p99 %v at %d req/s, budget %v", lat.P99, rate, budget)
	}
}

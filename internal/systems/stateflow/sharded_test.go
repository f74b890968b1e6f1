package stateflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

type shardedFixture struct {
	cluster *sim.Cluster
	sys     *ShardedSystem
	client  *sysapi.ScriptClient
}

func newShardedFixture(t *testing.T, cfg Config, shards, accounts int, script []sysapi.Scheduled) *shardedFixture {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(42)
	cfg.Shards = shards
	sys := New(cluster, prog, cfg)
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account",
			interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	client := sysapi.NewScriptClient("client", sys, script)
	cluster.Add("client", client)
	cluster.Start()
	return &shardedFixture{cluster: cluster, sys: sys, client: client}
}

// accountPair finds one same-shard and one cross-shard account pair among
// the first n preloadable accounts.
func accountPair(t *testing.T, sys *ShardedSystem, n int, cross bool) (string, string) {
	t.Helper()
	ref := func(i int) interp.EntityRef {
		return interp.EntityRef{Class: "Account", Key: acct(i)}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			same := sys.ShardOf(ref(i)) == sys.ShardOf(ref(j))
			if same != cross {
				return acct(i), acct(j)
			}
		}
	}
	t.Fatalf("no account pair with cross=%v among %d accounts", cross, n)
	return "", ""
}

// TestShardedSingleShardFastPath: a transfer whose footprint stays on one
// shard is forwarded to that shard's coordinator and never becomes a
// global transaction.
func TestShardedSingleShardFastPath(t *testing.T) {
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !prog.RefClosed("Account", "transfer") {
		t.Fatal("bank transfer should be ref-closed")
	}

	fx := newShardedFixture(t, DefaultConfig(), 2, 8, nil)
	from, to := accountPair(t, fx.sys, 8, false)
	fx.cluster.Inject(time.Millisecond, "client", fx.sys.IngressID(),
		sysapi.MsgRequest{Request: transferReq("t1", from, to, 30), ReplyTo: "client"})
	fx.cluster.RunUntil(time.Second)

	resp, ok := fx.client.Responses["t1"]
	if !ok {
		t.Fatal("no response")
	}
	if resp.Err != "" || !resp.Value.B {
		t.Fatalf("transfer failed: %+v", resp)
	}
	if fx.sys.Sequencer().SingleShard != 1 {
		t.Fatalf("SingleShard = %d, want 1", fx.sys.Sequencer().SingleShard)
	}
	if fx.sys.Sequencer().GlobalTxns != 0 {
		t.Fatalf("GlobalTxns = %d, want 0", fx.sys.Sequencer().GlobalTxns)
	}
	st, _ := fx.sys.EntityState("Account", from)
	if st["balance"].I != 70 {
		t.Fatalf("src balance: %d", st["balance"].I)
	}
	st, _ = fx.sys.EntityState("Account", to)
	if st["balance"].I != 130 {
		t.Fatalf("dst balance: %d", st["balance"].I)
	}
}

// TestShardedCrossShardTransfer: a transfer spanning two shards runs as a
// global transaction — fence, sequencer execution, one write-set apply
// per shard — and commits atomically on both sides.
func TestShardedCrossShardTransfer(t *testing.T) {
	fx := newShardedFixture(t, DefaultConfig(), 2, 8, nil)
	from, to := accountPair(t, fx.sys, 8, true)
	fx.cluster.Inject(time.Millisecond, "client", fx.sys.IngressID(),
		sysapi.MsgRequest{Request: transferReq("x1", from, to, 25), ReplyTo: "client"})
	fx.cluster.RunUntil(time.Second)

	resp, ok := fx.client.Responses["x1"]
	if !ok {
		t.Fatal("no response")
	}
	if resp.Err != "" || !resp.Value.B {
		t.Fatalf("transfer failed: %+v", resp)
	}
	seq := fx.sys.Sequencer()
	if seq.GlobalTxns != 1 || seq.GlobalBatches != 1 {
		t.Fatalf("GlobalTxns=%d GlobalBatches=%d, want 1/1", seq.GlobalTxns, seq.GlobalBatches)
	}
	fences, applies := 0, 0
	for _, sh := range fx.sys.Shards() {
		fences += sh.Coordinator().GlobalFences
		applies += sh.Coordinator().GlobalApplies
	}
	if fences != 2 {
		t.Fatalf("GlobalFences = %d, want 2 (both shards parked)", fences)
	}
	if applies != 2 {
		t.Fatalf("GlobalApplies = %d, want 2 (one write-set per shard)", applies)
	}
	st, _ := fx.sys.EntityState("Account", from)
	if st["balance"].I != 75 {
		t.Fatalf("src balance: %d", st["balance"].I)
	}
	st, _ = fx.sys.EntityState("Account", to)
	if st["balance"].I != 125 {
		t.Fatalf("dst balance: %d", st["balance"].I)
	}
}

// TestShardedMixedLoadConservation: a sustained mix of single-shard and
// cross-shard transfers settles every request exactly once and conserves
// the total balance across all shards.
func TestShardedMixedLoadConservation(t *testing.T) {
	const accounts = 16
	fx := newShardedFixture(t, DefaultConfig(), 4, accounts, nil)
	sFrom, sTo := accountPair(t, fx.sys, accounts, false)
	xFrom, xTo := accountPair(t, fx.sys, accounts, true)
	n := 0
	for i := 0; i < 40; i++ {
		from, to := sFrom, sTo
		if i%4 == 3 { // every fourth transfer crosses shards
			from, to = xFrom, xTo
		}
		if i%2 == 1 {
			from, to = to, from // alternate direction so funds round-trip
		}
		n++
		fx.cluster.Inject(time.Duration(i+1)*4*time.Millisecond, "client", fx.sys.IngressID(),
			sysapi.MsgRequest{Request: transferReq(fmt.Sprintf("m%d", i), from, to, 5), ReplyTo: "client"})
	}
	fx.cluster.RunUntil(5 * time.Second)

	if fx.client.Done != n {
		t.Fatalf("settled %d/%d requests", fx.client.Done, n)
	}
	seq := fx.sys.Sequencer()
	if seq.GlobalTxns == 0 {
		t.Fatal("expected some cross-shard transfers in the mix")
	}
	if seq.SingleShard == 0 {
		t.Fatal("expected some single-shard transfers in the mix")
	}
	var sum int64
	for i := 0; i < accounts; i++ {
		st, ok := fx.sys.EntityState("Account", acct(i))
		if !ok {
			t.Fatalf("account %s missing", acct(i))
		}
		sum += st["balance"].I
	}
	if sum != int64(accounts)*100 {
		t.Fatalf("balances sum to %d, want %d (atomicity violated)", sum, accounts*100)
	}
}

// TestWorkerMetricsAreTheWorkersSums: on a 2-shard deployment, every
// WorkerStats and WorkerCPU field is published under its shard's namespace
// with the sum of that field over the shard's workers, after a mixed run of
// single-shard and cross-shard transfers with snapshots.
func TestWorkerMetricsAreTheWorkersSums(t *testing.T) {
	const accounts = 16
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	fx := newShardedFixture(t, cfg, 2, accounts, nil)
	reg := obs.NewRegistry()
	fx.sys.RegisterMetrics(reg)
	// One same-shard pair per shard, then a cross-shard pair: every shard's
	// workers execute functions, and the snapshots fall between fences.
	var pairs [][2]string
	for sh := range fx.sys.Shards() {
		var keys []string
		for i := 0; i < accounts && len(keys) < 2; i++ {
			if fx.sys.ShardOf(interp.EntityRef{Class: "Account", Key: acct(i)}) == sh {
				keys = append(keys, acct(i))
			}
		}
		pairs = append(pairs, [2]string{keys[0], keys[1]})
	}
	xFrom, xTo := accountPair(t, fx.sys, accounts, true)
	pairs = append(pairs, [2]string{xFrom, xTo})
	const n = 24
	for i := 0; i < n; i++ {
		p := pairs[i*len(pairs)/n]
		fx.cluster.Inject(time.Duration(i+1)*4*time.Millisecond, "client", fx.sys.IngressID(),
			sysapi.MsgRequest{Request: transferReq(fmt.Sprintf("w%d", i), p[0], p[1], 1), ReplyTo: "client"})
	}
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != n {
		t.Fatalf("settled %d/%d requests", fx.client.Done, n)
	}

	got := reg.Snapshot()
	for _, sh := range fx.sys.Shards() {
		ns := sh.MetricsNamespace()
		want, busy := map[string]int64{}, 0
		for _, w := range sh.workers {
			if w.Applied > 0 {
				busy++
			}
			for prefix, stats := range map[string]any{"worker.": w.WorkerStats, "worker.cpu.": w.CPU} {
				v := reflect.ValueOf(stats)
				for i := range v.NumField() {
					var name strings.Builder
					for j, r := range v.Type().Field(i).Name {
						if unicode.IsUpper(r) && j > 0 {
							name.WriteByte('_')
						}
						name.WriteRune(unicode.ToLower(r))
					}
					want[ns+prefix+name.String()] += v.Field(i).Int()
				}
			}
		}
		for _, name := range slices.Sorted(maps.Keys(want)) {
			if v, ok := got[name]; !ok {
				t.Errorf("%s is not published", name)
			} else if v != want[name] {
				t.Errorf("%s = %d, the workers' sum is %d", name, v, want[name])
			}
		}
		if busy < 2 {
			t.Errorf("%s: %d of %d workers applied a transaction: a sum needs two", ns, busy, len(sh.workers))
		}
		for _, name := range []string{"worker.applied", "worker.cpu.function_execution", "worker.cpu.snapshot_persistence"} {
			if want[ns+name] == 0 {
				t.Errorf("%s%s is 0: the run is too short to check its value", ns, name)
			}
		}
	}
}

// shardedProbe builds a throwaway sharded system just to compute shard
// routing (ShardOf depends only on the program's layouts and the shard
// count, so it agrees with any same-shaped deployment).
func shardedProbe(t *testing.T, shards int) *ShardedSystem {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Shards = shards
	return New(sim.New(1), prog, cfg)
}

func shardedSum(t *testing.T, sys *ShardedSystem, accounts int) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < accounts; i++ {
		st, ok := sys.EntityState("Account", acct(i))
		if !ok {
			t.Fatalf("account %s missing", acct(i))
		}
		sum += st["balance"].I
	}
	return sum
}

// TestTopologyPin pins what clients and chaos plans see of a deployment:
// the ingress id and every role's component ids, in order. A plan picks its
// victims by their position in a role, so reordering the ring reorders
// every seeded fault.
func TestTopologyPin(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		ingress string
		roles   map[string][]string
	}{
		{1, "sf-coord", map[string][]string{
			"coordinator": {"sf-coord"},
			"worker":      {"sf-worker-0", "sf-worker-1", "sf-worker-2", "sf-worker-3", "sf-worker-4"},
		}},
		{4, "sf-seq", map[string][]string{
			"sequencer":   {"sf-seq"},
			"coordinator": {"sf0-coord", "sf1-coord", "sf2-coord", "sf3-coord"},
			"worker": {
				"sf0-worker-0", "sf0-worker-1", "sf0-worker-2", "sf0-worker-3", "sf0-worker-4",
				"sf1-worker-0", "sf1-worker-1", "sf1-worker-2", "sf1-worker-3", "sf1-worker-4",
				"sf2-worker-0", "sf2-worker-1", "sf2-worker-2", "sf2-worker-3", "sf2-worker-4",
				"sf3-worker-0", "sf3-worker-1", "sf3-worker-2", "sf3-worker-3", "sf3-worker-4",
			},
		}},
	} {
		sys := shardedProbe(t, tc.shards)
		if got := sys.IngressID(); got != tc.ingress {
			t.Errorf("%d shards: ingress %q, want %q", tc.shards, got, tc.ingress)
		}
		if got := sys.ChaosTopology().Roles; !reflect.DeepEqual(got, tc.roles) {
			t.Errorf("%d shards: roles\n%v\nwant\n%v", tc.shards, got, tc.roles)
		}
	}
}

// TestRingReadsMatchTheWorkerStores: on a 4-shard ring after single- and
// cross-shard transfers, Keys lists exactly the entities the workers'
// committed stores hold, each on one worker, and EntityState reads each one
// from that worker.
func TestRingReadsMatchTheWorkerStores(t *testing.T) {
	const accounts = 16
	fx := newShardedFixture(t, DefaultConfig(), 4, accounts, nil)
	sFrom, sTo := accountPair(t, fx.sys, accounts, false)
	xFrom, xTo := accountPair(t, fx.sys, accounts, true)
	for i, p := range [][2]string{{sFrom, sTo}, {xFrom, xTo}, {xTo, sFrom}} {
		fx.cluster.Inject(time.Duration(i+1)*4*time.Millisecond, "client", fx.sys.IngressID(),
			sysapi.MsgRequest{Request: transferReq(fmt.Sprintf("r%d", i), p[0], p[1], 7), ReplyTo: "client"})
	}
	fx.cluster.RunUntil(5 * time.Second)
	if fx.client.Done != 3 {
		t.Fatalf("settled %d/3 requests", fx.client.Done)
	}

	scanned := map[string]interp.MapState{}
	for _, sh := range fx.sys.Shards() {
		for _, w := range sh.workers {
			for _, key := range w.committed.Keys("Account") {
				if _, dup := scanned[key]; dup {
					t.Fatalf("%s is committed on two workers", key)
				}
				row, _ := w.committed.Lookup(interp.EntityRef{Class: "Account", Key: key})
				scanned[key] = row.CloneMap()
			}
		}
	}
	keys := fx.sys.Keys("Account")
	if len(keys) != accounts || len(scanned) != accounts {
		t.Fatalf("Keys lists %d accounts, the stores hold %d, want %d", len(keys), len(scanned), accounts)
	}
	moved := 0
	for _, key := range keys {
		want, ok := scanned[key]
		if !ok {
			t.Fatalf("Keys lists %s, which no worker holds", key)
		}
		got, ok := fx.sys.EntityState("Account", key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("EntityState(%s) = %v (found %v), the owning store holds %v", key, got, ok, want)
		}
		if got["balance"].I != 100 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no balance moved: the reads were only checked against the preload")
	}
	if _, ok := fx.sys.EntityState("Account", "nobody"); ok {
		t.Fatal("EntityState found an account no worker holds")
	}
}

// TestShardedShardCrashRecovery crashes one shard's coordinator in the
// middle of a mixed single-/cross-shard load. The durable fence markers
// plus client retries must converge: every request settles exactly once
// and the cross-shard atomicity invariant holds.
func TestShardedShardCrashRecovery(t *testing.T) {
	const accounts = 16
	probe := shardedProbe(t, 2)
	sFrom, sTo := accountPair(t, probe, accounts, false)
	xFrom, xTo := accountPair(t, probe, accounts, true)

	cfg := DefaultConfig()
	cfg.SnapshotEvery = 4
	b := sysapi.NewBuilder("cl-")
	var script []sysapi.Scheduled
	n := 0
	for i := 0; i < 60; i++ {
		from, to := sFrom, sTo
		if i%3 == 2 { // every third transfer crosses shards
			from, to = xFrom, xTo
		}
		if i%2 == 1 {
			from, to = to, from
		}
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 3 * time.Millisecond,
			Req: b.Next(interp.EntityRef{Class: "Account", Key: from}, "transfer",
				[]interp.Value{interp.IntV(5), interp.RefV("Account", to)}, "transfer"),
		})
		n++
	}

	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(7)
	cfg.Shards = 2
	sys := New(cluster, prog, cfg)
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account",
			interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	client := sysapi.NewScriptClient("client", sys, script)
	client.RetryEvery = 50 * time.Millisecond
	cluster.Add("client", client)
	cluster.Start()

	cluster.RunUntil(70 * time.Millisecond)
	cluster.Crash("sf0-coord")
	cluster.RunUntil(cluster.Now() + 25*time.Millisecond)
	cluster.Restart("sf0-coord")
	cluster.RunUntil(5 * time.Second)

	if client.Done != n {
		t.Fatalf("settled %d/%d requests after the shard crash", client.Done, n)
	}
	if sys.Shards()[0].Coordinator().Restarts == 0 {
		t.Fatal("shard 0 coordinator never rebooted; the crash exercised nothing")
	}
	if sys.Sequencer().GlobalTxns == 0 {
		t.Fatal("no cross-shard transactions in the mix")
	}
	if got := shardedSum(t, sys, accounts); got != accounts*100 {
		t.Fatalf("balances sum to %d, want %d", got, accounts*100)
	}
}

// shardAccounts groups the first n account keys by owning shard.
func shardAccounts(sys *ShardedSystem, n int) map[int][]string {
	out := map[int][]string{}
	for i := 0; i < n; i++ {
		ref := interp.EntityRef{Class: "Account", Key: acct(i)}
		out[sys.ShardOf(ref)] = append(out[sys.ShardOf(ref)], acct(i))
	}
	return out
}

// TestShardedFloorIsolationAcrossShardReboot pins the per-shard scoping
// of the incarnation dedup floor (the PR's third bug sweep item): one
// client source's sequence stream is partitioned across shards by
// deterministic routing, so each shard's durable floor covers exactly
// the subsequence it absorbed. A shard reboot rebuilds that shard's
// floor from its own checkpoint and cannot lower — or raise — another
// shard's floor; a very late duplicate still routes to the shard that
// pruned it and is absorbed there.
func TestShardedFloorIsolationAcrossShardReboot(t *testing.T) {
	const accounts = 16
	probe := shardedProbe(t, 2)
	groups := shardAccounts(probe, accounts)
	if len(groups[0]) < 2 || len(groups[1]) < 2 {
		t.Fatalf("accounts did not spread over both shards: %v", groups)
	}

	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	cfg.DedupRetention = 50 * time.Millisecond

	// One source, streams interleaved across both shards: even seqs land
	// on shard 0, odd seqs on shard 1 (all single-shard fast paths).
	cl := sysapi.NewBuilder("cl-")
	var script []sysapi.Scheduled
	var wave []sysapi.Request
	for i := 0; i < 8; i++ {
		g := groups[i%2]
		req := cl.Next(interp.EntityRef{Class: "Account", Key: g[0]}, "transfer",
			[]interp.Value{interp.IntV(1), interp.RefV("Account", g[1])}, "transfer")
		wave = append(wave, req)
		script = append(script, sysapi.Scheduled{At: time.Duration(i+1) * 5 * time.Millisecond, Req: req})
	}
	// Background traffic on both shards keeps epochs closing and
	// snapshots sealing so the retention prune runs everywhere.
	bg := sysapi.NewBuilder("bg-")
	for i := 0; i < 24; i++ {
		g := groups[i%2]
		script = append(script, sysapi.Scheduled{
			At: 100*time.Millisecond + time.Duration(i)*10*time.Millisecond,
			Req: bg.Next(interp.EntityRef{Class: "Account", Key: g[0]}, "transfer",
				[]interp.Value{interp.IntV(1), interp.RefV("Account", g[1])}, "transfer"),
		})
	}

	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(7)
	cfg.Shards = 2
	sys := New(cluster, prog, cfg)
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account",
			interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	client := &countingClient{
		inner:      sysapi.NewScriptClient("client", sys, script),
		Deliveries: map[string]int{},
	}
	cluster.Add("client", client)
	cluster.Start()
	cluster.RunUntil(450 * time.Millisecond)

	const total = 32
	if client.inner.Done != total {
		t.Fatalf("settled %d/%d requests before the reboot", client.inner.Done, total)
	}
	src, seq0, ok := sysapi.SplitID(wave[0].Req)
	if !ok {
		t.Fatalf("%s did not split as a builder id", wave[0].Req)
	}
	_, seqLastOdd, _ := sysapi.SplitID(wave[7].Req)
	c0, c1 := sys.Shards()[0].Coordinator(), sys.Shards()[1].Coordinator()
	if _, held := c0.journal.delivered(wave[0].Req); held {
		t.Fatalf("%s still in shard 0's delivered buffer; retention never pruned it", wave[0].Req)
	}
	floor0 := c0.journal.dedupFloor[src]
	floor1 := c1.journal.dedupFloor[src]
	if floor0 < seq0 {
		t.Fatalf("shard 0 floor for %s is %d, want >= %d after its prune", src, floor0, seq0)
	}
	if floor1 < seqLastOdd {
		t.Fatalf("shard 1 floor for %s is %d, want >= %d after its prune", src, floor1, seqLastOdd)
	}
	// The floors are per-shard subsequence high-water marks, not a shared
	// global: shard 0 only ever saw even seqs, so its floor must sit
	// strictly below shard 1's odd tail.
	if floor0 >= floor1 {
		t.Fatalf("shard 0 floor %d >= shard 1 floor %d; floors are not shard-scoped", floor0, floor1)
	}

	// Reboot shard 1. Its floor must come back from its own checkpoint;
	// shard 0's floor must not move at all.
	cluster.Crash("sf1-coord")
	cluster.RunUntil(cluster.Now() + 30*time.Millisecond)
	cluster.Restart("sf1-coord")
	cluster.RunUntil(cluster.Now() + 80*time.Millisecond)
	c1 = sys.Shards()[1].Coordinator()
	if got := c1.journal.dedupFloor[src]; got != floor1 {
		t.Fatalf("shard 1 floor for %s is %d after reboot, want %d (checkpoint did not restore it)", src, got, floor1)
	}
	if got := sys.Shards()[0].Coordinator().journal.dedupFloor[src]; got != floor0 {
		t.Fatalf("shard 0 floor for %s moved to %d across shard 1's reboot, want %d", src, got, floor0)
	}

	// The very late duplicate of shard 0's first request: deterministic
	// routing sends it back to shard 0, whose floor absorbs it.
	cluster.Inject(cluster.Now()+time.Millisecond, "client", sys.IngressID(),
		sysapi.MsgRequest{Request: wave[0], ReplyTo: "client"})
	cluster.RunUntil(cluster.Now() + 200*time.Millisecond)
	if sys.Shards()[0].Coordinator().LateDuplicates == 0 {
		t.Fatal("late duplicate was not absorbed by shard 0's floor")
	}
	if n := client.Deliveries[wave[0].Req]; n != 1 {
		t.Fatalf("request %s delivered %d times, want exactly 1", wave[0].Req, n)
	}
	if got := shardedSum(t, sys, accounts); got != accounts*100 {
		t.Fatalf("balances sum to %d, want %d (the duplicate re-executed)", got, accounts*100)
	}
}

// TestGlobalExecuteVirtualTimeBudget: the fence acks carry every row a
// cross-shard transfer reads, so the sequencer executes it exactly once, in
// the event that delivers the last ack. Its global.execute span is then the
// CPU of one execution and nothing else — no reconnaissance round trip, no
// re-execution from scratch.
func TestGlobalExecuteVirtualTimeBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = obs.NewTracer()
	fx := newFailoverFixtureWith(t, cfg)
	fx.transfer()
	fx.settle()
	if len(fx.client.got) != 1 || !fx.client.got[0].Value.B {
		t.Fatalf("client saw %+v, want the one successful transfer", fx.client.got)
	}

	// One execution's steps, counted against a plain store.
	store := state.NewStore(fx.sys.prog.Layouts())
	for _, key := range []string{fx.from, fx.to} {
		store.PutMap(interp.EntityRef{Class: "Account", Key: key},
			interp.MapState{"owner": interp.StrV(key), "balance": interp.IntV(100)})
	}
	ws, ex := new(aria.Workspace), core.NewExecutor(fx.sys.prog)
	ws.Open(store)
	req := transferReq("x1", fx.from, fx.to, 25)
	_, steps, err := ex.Drive(core.Event{Kind: core.EvInvoke, Req: req.Req, Target: req.Target, Method: req.Method, Args: req.Args}, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(steps) * cfg.Costs.ExecuteCPU

	var buf bytes.Buffer
	if err := cfg.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans []time.Duration
	for _, ev := range doc.TraceEvents {
		if ev.Name == "global.execute" {
			spans = append(spans, time.Duration(math.Round(ev.Dur*1000)))
		}
	}
	if len(spans) != 1 || spans[0] != want {
		t.Fatalf("global.execute spans %v, want one of %v (%d steps of %v)", spans, want, steps, cfg.Costs.ExecuteCPU)
	}
}

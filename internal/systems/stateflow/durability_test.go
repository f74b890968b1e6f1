package stateflow

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// durableFixture is the bank scenario with a retrying, delivery-counting
// client: the client edge the durable coordinator's contract assumes.
// Transfers circulate over `accounts` accounts; with n a multiple of
// accounts, every balance returns to 100 iff effects are exactly-once.
type durableFixture struct {
	cluster  *sim.Cluster
	dep      *ShardedSystem
	sys      *System
	client   *countingClient
	accounts int
}

func newDurableFixture(t *testing.T, seed int64, cfg Config, n, accounts int) *durableFixture {
	t.Helper()
	if n%accounts != 0 {
		t.Fatalf("fixture invariant: %d transfers around a %d-cycle do not conserve per-account balances", n, accounts)
	}
	var script []sysapi.Scheduled
	for i := 0; i < n; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(i+1) * 5 * time.Millisecond,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(i%accounts), acct((i+1)%accounts), 1),
		})
	}
	return newScriptedDurableFixture(t, seed, cfg, script, accounts)
}

// newScriptedDurableFixture is the durable fixture running script over
// `accounts` preloaded accounts; the script's writes must conserve every
// balance for assertExactlyOnceEffective to hold.
func newScriptedDurableFixture(t *testing.T, seed int64, cfg Config, script []sysapi.Scheduled, accounts int) *durableFixture {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(seed)
	dep := New(cluster, prog, cfg)
	for i := 0; i < accounts; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	dep.CheckpointPreloadedState()
	inner := sysapi.NewScriptClient("client", dep, script)
	inner.RetryEvery = 20 * time.Millisecond
	client := &countingClient{inner: inner, Deliveries: map[string]int{}}
	cluster.Add("client", client)
	return &durableFixture{cluster: cluster, dep: dep, sys: dep.Single(), client: client, accounts: accounts}
}

// inBursts re-times a script so its requests arrive size at a time, one
// burst every 5 ms. Under the self-clocked close an arrival spaced wider than
// one transaction's execution gets a batch of its own, so a case that steps to
// a multi-member batch — or to a batch executing under a busy commit slot —
// needs its members to arrive together.
func inBursts(script []sysapi.Scheduled, size int) {
	for i := range script {
		script[i].At = time.Duration(i/size+1) * 5 * time.Millisecond
	}
}

// assertExactlyOnceEffective checks the client-edge contract under
// retries: every request answered without error, every raw delivery
// explained (one original plus at most one replay per retry the client
// sent), and every balance conserved.
func (f *durableFixture) assertExactlyOnceEffective(t *testing.T, n int) {
	t.Helper()
	if f.client.inner.Done != n {
		t.Fatalf("responses: %d/%d", f.client.inner.Done, n)
	}
	for id, resp := range f.client.inner.Responses {
		if resp.Err != "" {
			t.Fatalf("request %s failed: %s", id, resp.Err)
		}
	}
	for id, count := range f.client.Deliveries {
		if allowed := 1 + f.client.inner.Retries[id]; count > allowed {
			t.Fatalf("request %s delivered %d times with %d retries (unsolicited duplicate)",
				id, count, f.client.inner.Retries[id])
		}
	}
	for i := 0; i < f.accounts; i++ {
		if got := balance(t, f.dep, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100 (lost or duplicated effects)", acct(i), got)
		}
	}
}

// TestCoordinatorCrashRecoversExactlyOnce kills the coordinator cold in
// the middle of the run (scheduled window, like the chaos engine's) and
// requires the durable-log reboot to preserve the full contract: every
// request eventually answered exactly-once-effectively, balances
// conserved, and the reboot actually exercised (Restarts, dlog recovery).
func TestCoordinatorCrashRecoversExactlyOnce(t *testing.T) {
	const n = 24
	for _, seedCase := range []struct {
		seed    int64
		crashAt time.Duration
	}{
		{7, 23 * time.Millisecond},
		{8, 41 * time.Millisecond},
		{9, 62 * time.Millisecond},
		{10, 87 * time.Millisecond},
	} {
		cfg := DefaultConfig()
		cfg.SnapshotEvery = 2
		cfg.EpochInterval = 10 * time.Millisecond
		f := newDurableFixture(t, seedCase.seed, cfg, n, 4)
		down := 15 * time.Millisecond
		end := seedCase.crashAt + down
		f.cluster.ScheduleAt(seedCase.crashAt, func(c *sim.Cluster) { c.CrashUntil("sf-coord", end) })
		f.cluster.ScheduleAt(end, func(c *sim.Cluster) { c.Restart("sf-coord") })
		f.cluster.Start()
		f.cluster.RunUntil(20 * time.Second)

		coord := f.sys.Coordinator()
		if coord.Restarts == 0 {
			t.Fatalf("seed %d crash@%s: coordinator never rebooted", seedCase.seed, seedCase.crashAt)
		}
		f.assertExactlyOnceEffective(t, n)
		if got := f.sys.Dlog.Stats(); got.Appends == 0 || got.Syncs == 0 {
			t.Fatalf("seed %d: durable log never exercised: %+v", seedCase.seed, got)
		}
	}
}

// TestCoordinatorCrashMidGroupCommit pins the torn-tail window: the
// coordinator dies after staging responses but before their group-commit
// sync completes. The staged records tear (never replayed), the responses
// were never sent, and the recovery re-executes and answers each request
// exactly once.
func TestCoordinatorCrashMidGroupCommit(t *testing.T) {
	const n = 24
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	f := newDurableFixture(t, 42, cfg, n, 4)
	f.cluster.Start()

	// Step finely until responses are staged awaiting their sync, then
	// kill the coordinator at that exact instant.
	for i := 0; ; i++ {
		if len(f.sys.coord.journal.staged) > 0 {
			break
		}
		if i > 200_000 {
			t.Fatal("never caught the coordinator with staged responses")
		}
		f.cluster.RunUntil(f.cluster.Now() + 20*time.Microsecond)
	}
	staged := len(f.sys.coord.journal.staged)
	f.cluster.Crash("sf-coord")
	f.cluster.RunUntil(f.cluster.Now() + 30*time.Millisecond)
	f.cluster.Restart("sf-coord")
	f.cluster.RunUntil(20 * time.Second)

	if f.sys.Coordinator().Restarts != 1 {
		t.Fatalf("restarts: %d", f.sys.Coordinator().Restarts)
	}
	if got := f.sys.Dlog.Stats().TornTails; got == 0 {
		t.Fatalf("crash over %d staged responses tore no log tail", staged)
	}
	f.assertExactlyOnceEffective(t, n)
}

// flightLines counts the recorder's events of one kind.
func flightLines(rec *obs.FlightRecorder, kind string) (n int) {
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestCorruptLogRecordIsCountedNotSwallowed pins that a reboot never drops
// a durable record silently. One undecodable delivered-record (corruption
// outside the device's crash contract) is made durable, and the
// coordinator is crashed at that protocol state: recovery carries on
// without the record, but CorruptLogRecords and the flight recorder say
// so — and with nothing real lost, the run is otherwise exact.
func TestCorruptLogRecordIsCountedNotSwallowed(t *testing.T) {
	const n = 24
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	cfg.Flight = obs.NewFlightRecorder(0)
	f := newDurableFixture(t, 42, cfg, n, 4)
	reg := obs.NewRegistry()
	f.sys.RegisterMetrics(reg)
	f.cluster.Start()

	// Step until the journal holds released responses and nothing staged,
	// so the garbage record is the only thing the crash could lose.
	j := &f.sys.coord.journal
	for i := 0; j.size() < n/4 || !j.quiet(); i++ {
		if i > 200_000 {
			t.Fatal("never caught the journal quiet with released responses")
		}
		f.cluster.RunUntil(f.cluster.Now() + 20*time.Microsecond)
	}
	now := f.cluster.Now()
	f.sys.Dlog.Append(dlog.Record{Kind: recKindDelivered, Data: []byte{0xff}})
	f.sys.Dlog.SyncNow(now)
	f.cluster.ScheduleCrash("sf-coord", now, now+15*time.Millisecond)
	f.cluster.RunUntil(20 * time.Second)

	coord := f.sys.Coordinator()
	if coord.Restarts != 1 || coord.CorruptLogRecords != 1 {
		t.Fatalf("restarts=%d corrupt=%d, want 1 and 1", coord.Restarts, coord.CorruptLogRecords)
	}
	if got := reg.Snapshot()["stateflow.coordinator.corrupt_log_records"]; got != 1 {
		t.Fatalf("stateflow.coordinator.corrupt_log_records = %d, want 1", got)
	}
	if lines := flightLines(cfg.Flight, "corrupt"); lines != 1 {
		t.Fatalf("%d flight-recorder lines for the skipped record, want 1:\n%s", lines, cfg.Flight.Dump())
	}
	f.assertExactlyOnceEffective(t, n)
}

// TestCorruptSnapshotImageIsCountedNotSwallowed is the snapshot-store twin
// of the test above. One worker's image of the sealed snapshot is damaged
// in place (corruption outside the store's contract) and that worker is
// crashed at that protocol state: the recovery still rolls every worker
// back and carries on — the damaged worker from an empty store — but the
// worker's counter, the deployment metric and the flight recorder say so,
// once. An image whose rows name an attribute the class does not declare,
// or one attribute twice, is as undecodable as garbage.
func TestCorruptSnapshotImageIsCountedNotSwallowed(t *testing.T) {
	// Same-length rewrites of the image, so the stored bytes can be damaged
	// where they lie.
	entry := func(attr string, v interp.Value) []byte {
		e := interp.NewEncoder()
		e.Str(attr)
		e.Value(v)
		return e.Bytes()
	}
	rewrite := func(t *testing.T, img, old, new []byte) {
		i := bytes.Index(img, old)
		if i < 0 || len(old) != len(new) {
			t.Fatalf("image holds no %x to rewrite in place", old)
		}
		copy(img[i:], new)
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, img []byte)
	}{
		{"garbage", func(_ *testing.T, img []byte) {
			for i := range img {
				img[i] = 0xff
			}
		}},
		{"attribute outside the layout", func(t *testing.T, img []byte) {
			rewrite(t, img, []byte("balance"), []byte("balancf"))
		}},
		{"attribute named twice", func(t *testing.T, img []byte) {
			// acct(0)'s owner entry becomes a second balance entry: the
			// int's varint is padded with continuation bytes to the length
			// of the string it replaces.
			owner := entry("owner", interp.StrV(acct(0)))
			balance := entry("balance", interp.IntV(0))
			pad := len(owner) - len(balance)
			balance = append(balance[:len(balance)-1], bytes.Repeat([]byte{0x80}, pad)...)
			rewrite(t, img, owner, append(balance, 0))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corruptSnapshotImage(t, tc.damage)
		})
	}
}

// corruptSnapshotImage runs the bank scenario, damages one worker's image
// of the sealed snapshot, crashes that worker, and checks the restore is
// counted as corrupt once and the run still answers everything.
func corruptSnapshotImage(t *testing.T, damage func(t *testing.T, img []byte)) {
	const n = 24
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	cfg.Flight = obs.NewFlightRecorder(0)
	f := newDurableFixture(t, 42, cfg, n, 4)
	reg := obs.NewRegistry()
	f.sys.RegisterMetrics(reg)
	f.cluster.Start()

	// Step until a periodic snapshot (past the preload's) is sealed and the
	// commit slot is free, so the recovery restores exactly that snapshot.
	coord := f.sys.Coordinator()
	for i := 0; coord.sealed < 2 || coord.commit != nil; i++ {
		if i > 200_000 {
			t.Fatal("never caught a sealed periodic snapshot")
		}
		f.cluster.RunUntil(f.cluster.Now() + 20*time.Microsecond)
	}
	victim := f.sys.workers[f.sys.OwnerIndex(interp.EntityRef{Class: "Account", Key: acct(0)})]
	img, ok := f.sys.Snapshots.Read(coord.sealed, victim.id)
	if !ok || len(img) == 0 {
		t.Fatalf("snapshot %d holds no image of %s", coord.sealed, victim.id)
	}
	damage(t, img) // Read hands out the stored bytes: this damages the store
	sealed, now := coord.sealed, f.cluster.Now()
	f.cluster.ScheduleCrash(victim.id, now, now+5*time.Millisecond)
	f.cluster.RunUntil(20 * time.Second)

	if restored := restoredSnapshots(t, coord); coord.Recoveries != 1 || len(restored) != 1 || restored[0] != sealed {
		t.Fatalf("recoveries=%d restored=%v, want one recovery to snapshot %d",
			coord.Recoveries, restored, sealed)
	}
	total := 0
	for _, w := range f.sys.workers {
		total += w.CorruptSnapshotImages
	}
	if victim.CorruptSnapshotImages != 1 || total != 1 {
		t.Fatalf("corrupt images: %s=%d, all workers=%d, want 1 and 1", victim.id, victim.CorruptSnapshotImages, total)
	}
	if got := reg.Snapshot()["stateflow.worker.corrupt_snapshot_images"]; got != 1 {
		t.Fatalf("stateflow.worker.corrupt_snapshot_images = %d, want 1", got)
	}
	if lines := flightLines(cfg.Flight, "corrupt"); lines != 1 {
		t.Fatalf("%d flight-recorder lines for the undecodable image, want 1:\n%s", lines, cfg.Flight.Dump())
	}
	// Recovery behaviour is unchanged: the run goes on and answers everything.
	if f.client.inner.Done != n {
		t.Fatalf("responses: %d/%d", f.client.inner.Done, n)
	}
}

// TestResponseDropReplayServesRetry un-clamps the client edge by hand:
// every coordinator→client delivery inside the fault horizon is dropped,
// so the only way any request resolves is the client retrying and the
// egress re-serving the recorded response from its durable buffer.
func TestResponseDropReplayServesRetry(t *testing.T) {
	const n = 8
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	f := newDurableFixture(t, 11, cfg, n, 4)
	horizon := 60 * time.Millisecond
	plan := chaos.Plan{
		Name:    "drop-every-response",
		Horizon: horizon,
		Perturbs: []chaos.Perturbation{{
			Edge:  chaos.Edge{From: "coordinator", To: "client"},
			DropP: 1.0,
		}},
	}
	eng := chaos.Install(f.cluster, f.dep.ChaosTopology(), plan)
	f.cluster.Start()
	f.cluster.RunUntil(20 * time.Second)

	st := eng.Stats()
	if st.Dropped == 0 {
		t.Fatal("plan dropped nothing: client-edge responses are still clamped")
	}
	coord := f.sys.Coordinator()
	if coord.Replays == 0 {
		t.Fatal("no response was re-served from the egress buffer")
	}
	f.assertExactlyOnceEffective(t, n)
	// Replays must be solicited: never more than the retries that asked.
	totalRetries := 0
	for _, r := range f.client.inner.Retries {
		totalRetries += r
	}
	if coord.Replays > totalRetries {
		t.Fatalf("%d replays exceed %d retries", coord.Replays, totalRetries)
	}
}

// TestDedupMapsPrunedAtCheckpoint bounds the seen/delivered maps: with a
// short retention window and frequent checkpoints, long runs must not
// accumulate one entry per request ever seen — the unbounded-growth bug
// this PR retires. The script is conflict-free (deposits spread over many
// accounts, +1 then -1 rounds) so the run length measures settled-entry
// turnover, not Aria's chain-conflict churn.
func TestDedupMapsPrunedAtCheckpoint(t *testing.T) {
	const n, A = 120, 20 // n/A rounds is even: +1/-1 deposits cancel per account
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 5 * time.Millisecond
	cfg.DedupRetention = 25 * time.Millisecond
	var script []sysapi.Scheduled
	for i := 0; i < n; i++ {
		amount := int64(1)
		if (i/A)%2 == 1 {
			amount = -1
		}
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 5 * time.Millisecond,
			Req: sysapi.Request{
				Req:    fmt.Sprintf("t%d", i),
				Target: interp.EntityRef{Class: "Account", Key: acct(i % A)},
				Method: "deposit",
				Args:   []interp.Value{interp.IntV(amount)},
				Kind:   "deposit",
			},
		})
	}
	cluster := sim.New(13)
	dep := New(cluster, prog, cfg)
	sys := dep.Single()
	for i := 0; i < A; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	inner := sysapi.NewScriptClient("client", dep, script)
	inner.RetryEvery = 20 * time.Millisecond
	client := &countingClient{inner: inner, Deliveries: map[string]int{}}
	cluster.Add("client", client)
	cluster.Start()
	cluster.RunUntil(20 * time.Second)

	if client.inner.Done != n {
		t.Fatalf("responses: %d/%d", client.inner.Done, n)
	}
	for id, resp := range client.inner.Responses {
		if resp.Err != "" {
			t.Fatalf("request %s failed: %s", id, resp.Err)
		}
	}
	for i := 0; i < A; i++ {
		if got := balance(t, dep, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100", acct(i), got)
		}
	}
	coord := sys.Coordinator()
	if coord.journal.size() >= n/2 || len(coord.journal.requests) >= n/2 {
		t.Fatalf("dedup state not pruned: %d answered, %d records after %d requests",
			coord.journal.size(), len(coord.journal.requests), n)
	}
	if st := sys.Dlog.Stats(); st.Checkpoints == 0 || st.Compacted == 0 {
		t.Fatalf("no checkpoint compaction happened: %+v", st)
	}
}

// TestBoundedBatchesChunkReplay caps the batch size and throws a burst
// plus a recovery replay at it: no batch may ever exceed the cap, and the
// backlog must drain chunked across consecutive batches.
func TestBoundedBatchesChunkReplay(t *testing.T) {
	const n, cap = 32, 4
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.MaxBatch = cap
	// One burst: every request lands inside the first epoch.
	var script []sysapi.Scheduled
	for i := 0; i < n; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Millisecond,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(i%4), acct((i+1)%4), 1),
		})
	}
	cluster := sim.New(17)
	dep := New(cluster, prog, cfg)
	sys := dep.Single()
	for i := 0; i < 4; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	inner := sysapi.NewScriptClient("client", dep, script)
	inner.RetryEvery = 25 * time.Millisecond
	client := &countingClient{inner: inner, Deliveries: map[string]int{}}
	cluster.Add("client", client)
	// A worker crash mid-run forces a rollback whose replay backlog spans
	// many batches.
	cluster.ScheduleAt(30*time.Millisecond, func(c *sim.Cluster) { c.CrashUntil("sf-worker-0", 45*time.Millisecond) })
	cluster.ScheduleAt(45*time.Millisecond, func(c *sim.Cluster) { c.Restart("sf-worker-0") })
	cluster.Start()

	maxBatch := 0
	for i := 0; i < 2_000_000 && client.inner.Done < n; i++ {
		if st := sys.coord.exec; st != nil && len(st.txns) > maxBatch {
			maxBatch = len(st.txns)
		}
		cluster.RunUntil(cluster.Now() + 100*time.Microsecond)
	}
	cluster.RunUntil(cluster.Now() + 5*time.Second)
	if client.inner.Done != n {
		t.Fatalf("responses: %d/%d", client.inner.Done, n)
	}
	if maxBatch > cap {
		t.Fatalf("batch grew to %d, cap %d", maxBatch, cap)
	}
	if sys.Coordinator().Recoveries == 0 {
		t.Fatal("worker crash never triggered a recovery (replay path untested)")
	}
	if got := sys.Coordinator().EpochsClosed; got < n/cap {
		t.Fatalf("only %d epochs closed for %d requests at cap %d (no chunking?)", got, n, cap)
	}
	for i := 0; i < 4; i++ {
		if got := balance(t, dep, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100", acct(i), got)
		}
	}
}

// TestSnapshotRetainCompactsStore bounds the snapshot store: with
// SnapshotRetain set, old snapshots retire at each dlog checkpoint while
// recovery still restores the newest complete one.
func TestSnapshotRetainCompactsStore(t *testing.T) {
	const n = 60
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 5 * time.Millisecond
	cfg.SnapshotRetain = 3
	// Legacy retry path: with the fallback on, the contended cycle
	// collapses into a handful of long batches and the scenario stops
	// producing enough snapshots to exercise retention.
	cfg.DisableFallback = true
	f := newDurableFixture(t, 19, cfg, n, 20)
	f.cluster.ScheduleAt(70*time.Millisecond, func(c *sim.Cluster) { c.CrashUntil("sf-worker-1", 85*time.Millisecond) })
	f.cluster.ScheduleAt(85*time.Millisecond, func(c *sim.Cluster) { c.Restart("sf-worker-1") })
	f.cluster.Start()
	f.cluster.RunUntil(20 * time.Second)

	f.assertExactlyOnceEffective(t, n)
	taken, held := f.sys.Snapshots.Count(), f.sys.Snapshots.Retained()
	if taken < 8 {
		t.Fatalf("scenario too tame: only %d snapshots taken", taken)
	}
	// Retained can exceed SnapshotRetain by the torn/newer stragglers the
	// compactor deliberately keeps, but must stay far below Count.
	if held > cfg.SnapshotRetain+3 {
		t.Fatalf("snapshot store not compacted: %d taken, %d still held", taken, held)
	}
	if f.sys.Coordinator().Recoveries == 0 {
		t.Fatal("no recovery exercised against the compacted store")
	}
}

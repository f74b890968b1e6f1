package stateflow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// countingClient wraps the scripted client and counts every raw
// MsgResponse delivery per request id, so tests can prove the
// coordinator's delivered-set suppressed duplicates (the ScriptClient
// itself silently drops them).
type countingClient struct {
	inner      *sysapi.ScriptClient
	Deliveries map[string]int
}

func (c *countingClient) OnStart(ctx *sim.Context) { c.inner.OnStart(ctx) }

func (c *countingClient) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if m, ok := msg.(sysapi.MsgResponse); ok {
		c.Deliveries[m.Response.Req]++
	}
	c.inner.OnMessage(ctx, from, msg)
}

// recoveryRequests is the shared scenario's request count.
const recoveryRequests = 24

// recoveryFixture is the bank scenario shared by this file's tests: 24
// contended single-unit transfers circulating over 4 accounts (so every
// balance returns to 100 iff effects are exactly-once), frequent
// snapshots, and a delivery-counting client.
type recoveryFixture struct {
	cluster *sim.Cluster
	dep     *ShardedSystem
	sys     *System
	client  *countingClient
}

func newRecoveryFixture(t *testing.T, seed int64, mods ...func(*Config)) *recoveryFixture {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	for _, mod := range mods {
		mod(&cfg)
	}
	var script []sysapi.Scheduled
	for i := 0; i < recoveryRequests; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(i+1) * 5 * time.Millisecond,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(i%4), acct((i+1)%4), 1),
		})
	}
	cluster := sim.New(seed)
	dep := New(cluster, prog, cfg)
	for i := 0; i < 4; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	dep.CheckpointPreloadedState()
	client := &countingClient{
		inner:      sysapi.NewScriptClient("client", dep, script),
		Deliveries: map[string]int{},
	}
	cluster.Add("client", client)
	return &recoveryFixture{cluster: cluster, dep: dep, sys: dep.Single(), client: client}
}

// assertExactlyOnce checks the scenario's shared post-conditions: every
// request answered exactly once without error, and every balance back at
// 100 (no lost or duplicated effects). fail lets callers prefix failures
// with reproduction info (seed, plan).
func (f *recoveryFixture) assertExactlyOnce(t *testing.T, fail func(format string, args ...any)) {
	t.Helper()
	if f.client.inner.Done != recoveryRequests {
		fail("responses: %d/%d", f.client.inner.Done, recoveryRequests)
	}
	for id, count := range f.client.Deliveries {
		if count != 1 {
			fail("request %s delivered %d times", id, count)
		}
	}
	for id, resp := range f.client.inner.Responses {
		if resp.Err != "" {
			fail("request %s failed: %s", id, resp.Err)
		}
	}
	for i := 0; i < 4; i++ {
		if got := balance(t, f.dep, acct(i)); got != 100 {
			fail("%s: balance %d, want 100 (lost or duplicated effects)", acct(i), got)
		}
	}
}

// TestRecoveryMidBatchExactlyOnceDelivery crashes a worker while a batch
// is executing, recovers from the latest snapshot, and asserts:
//
//   - the source-suffix replay re-commits transactions whose responses
//     already went out before the crash (Commits counts them twice),
//   - yet no client ever receives a second response for any request
//     (the journal's delivered map suppresses the duplicates),
//   - the Retries/Recoveries/Aborts stats stay mutually consistent,
//   - committed state matches a single serial execution (no double
//     effects from the replay).
func TestRecoveryMidBatchExactlyOnceDelivery(t *testing.T) {
	const n = recoveryRequests
	f := newRecoveryFixture(t, 42)
	cluster, sys, client := f.cluster, f.sys, f.client
	cluster.Start()

	// Advance in small steps until (a) a snapshot exists, (b) at least
	// one response was delivered after it (so the replay must re-commit
	// work whose response already went out), and (c) the coordinator is
	// mid-batch — the exec slot has transactions still executing. (With
	// the pipelined schedule the open window and the execution window
	// coincide: a batch whose events all finished promotes the instant it
	// closes, so closed-but-executing is no longer a dwellable state.)
	// Kill a worker at exactly that point.
	snapCount := sys.Snapshots.Count()
	commitsAtSnap := sys.Coordinator().Commits
	for i := 0; ; i++ {
		if c := sys.Snapshots.Count(); c != snapCount {
			snapCount = c
			commitsAtSnap = sys.Coordinator().Commits
		}
		if st := sys.coord.exec; snapCount > 1 && sys.Coordinator().Commits > commitsAtSnap &&
			st != nil && st.unfinished > 0 {
			break
		}
		if i > 50_000 {
			t.Fatal("never observed a post-snapshot mid-batch point")
		}
		cluster.RunUntil(cluster.Now() + 200*time.Microsecond)
	}
	delivered := client.inner.Done
	if delivered == n {
		t.Fatalf("crash not mid-run: %d/%d responses delivered", delivered, n)
	}
	commitsBefore := sys.Coordinator().Commits
	victim := sys.WorkerIDs()[sys.OwnerIndex(interp.EntityRef{Class: "Account", Key: acct(0)})]
	cluster.Crash(victim)
	cluster.RunUntil(10 * time.Second)

	coord := sys.Coordinator()
	if coord.Recoveries != 1 {
		t.Fatalf("recoveries: %d", coord.Recoveries)
	}
	if client.inner.Done != n {
		t.Fatalf("responses after recovery: %d/%d", client.inner.Done, n)
	}
	// The replay re-committed work that predates the crash but postdates
	// the snapshot, so the commit counter exceeds the request count...
	if coord.Commits <= commitsBefore || coord.Commits <= n {
		t.Fatalf("replay did not re-commit: before=%d after=%d n=%d",
			commitsBefore, coord.Commits, n)
	}
	// ...yet every request's response reached the client exactly once and
	// committed state matches one serial execution.
	f.assertExactlyOnce(t, t.Fatalf)
	if len(client.Deliveries) != n {
		t.Fatalf("distinct responses: %d/%d", len(client.Deliveries), n)
	}
	// Stats consistency: every response's retry count is within budget,
	// and the per-transaction retries never exceed the abort events the
	// coordinator recorded.
	totalRetries := 0
	for id, resp := range client.inner.Responses {
		if resp.Retries > sys.cfg.MaxRetries {
			t.Fatalf("request %s retries %d exceed budget %d", id, resp.Retries, sys.cfg.MaxRetries)
		}
		totalRetries += resp.Retries
	}
	if totalRetries > coord.Aborts {
		t.Fatalf("retries %d exceed recorded aborts %d", totalRetries, coord.Aborts)
	}
}

// TestRecoveryGeneratedCrashPoints generalizes the hand-picked crash
// above: across seeds, the chaos engine schedules a generated (instant,
// victim-count, downtime) crash window that lands wherever the seed puts
// it — mid-batch, mid-snapshot, or during a recovery already in flight —
// and the exactly-once contract must hold every time:
//
//   - every request's response reaches the client exactly once,
//   - committed state matches one serial execution (balances conserved),
//   - a crash that interrupts a snapshot leaves it incomplete, and the
//     recovery restores the last *complete* snapshot (Latest skips the
//     torn cut),
//   - snapshots carrying pending-retry positions replay them (the
//     conflict-heavy script makes retries routinely straddle snapshots).
//
// Failure messages carry the seed and the generated plan verbatim.
func TestRecoveryGeneratedCrashPoints(t *testing.T) {
	totalRecoveries, tornSnapshots, pendingSnapshots := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		// Generate the crash point from the seed (plan-local RNG: the
		// cluster RNG stays reserved for the run itself).
		rng := rand.New(rand.NewSource(seed * 977))
		plan := chaos.Plan{
			Name: fmt.Sprintf("crashpoint-seed-%d", seed),
			Seed: seed,
			Crashes: []chaos.Crash{{
				Role:     "worker",
				Victims:  1 + rng.Intn(2),
				At:       20*time.Millisecond + time.Duration(rng.Int63n(int64(90*time.Millisecond))),
				Downtime: 5*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond))),
				Every:    60 * time.Millisecond,
				Count:    1 + rng.Intn(2),
			}},
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed=%d plan=%s: %s", seed, plan, fmt.Sprintf(format, args...))
		}

		// The sweep pins the legacy abort-retry machinery (snapshots must
		// record pending-retry positions, which the fallback phase would
		// rescue before they ever reach the pending queue); fallback-on
		// crash coverage comes from the chaos oracle sweep and the
		// mid-fallback crash test in fallback_test.go.
		f := newRecoveryFixture(t, seed, func(c *Config) { c.DisableFallback = true })
		cluster, sys := f.cluster, f.sys
		eng := chaos.Install(cluster, f.dep.ChaosTopology(), plan)
		cluster.Start()
		cluster.RunUntil(20 * time.Second)

		if got := eng.Stats().CrashWindows; got == 0 {
			fail("no crash window scheduled")
		}
		f.assertExactlyOnce(t, fail)
		totalRecoveries += sys.Coordinator().Recoveries

		// Post-mortem on the snapshot store: torn snapshots (crash landed
		// mid-checkpoint) must have been skipped by every restore. The
		// epoch view-change guarantees a torn snapshot stays torn (a
		// delayed image write from the old world is rejected), so
		// end-state completeness is restore-time completeness.
		for id := int64(1); id <= int64(sys.Snapshots.Count()); id++ {
			meta, ok := sys.Snapshots.Get(id)
			if !ok {
				continue
			}
			if meta.Expected > 0 && len(meta.Bytes) < meta.Expected {
				tornSnapshots++
			}
			if len(meta.PendingPositions[sourceTopic]) > 0 {
				pendingSnapshots++
			}
		}
		for _, id := range sys.Coordinator().RestoredSnapshots {
			if id == 0 {
				continue // reset-to-empty, nothing to tear
			}
			meta, ok := sys.Snapshots.Get(id)
			if !ok {
				fail("recovery restored unknown snapshot %d", id)
			}
			if meta.Expected > 0 && len(meta.Bytes) < meta.Expected {
				fail("recovery restored torn snapshot %d", id)
			}
		}
	}
	// The sweep as a whole must have exercised the interesting paths: real
	// recoveries, and snapshots that recorded pending retries. (Torn
	// snapshots depend on where seeds land; log them for visibility.)
	if totalRecoveries == 0 {
		t.Fatal("no generated crash point triggered a recovery")
	}
	if pendingSnapshots == 0 {
		t.Fatal("no snapshot recorded pending-retry positions (conflict script too tame)")
	}
	t.Logf("sweep: %d recoveries, %d torn snapshots skipped, %d snapshots with pending retries",
		totalRecoveries, tornSnapshots, pendingSnapshots)
}

// TestRecoveryMidSnapshotRestoresLastComplete pins the mid-checkpoint
// case deterministically (the generated sweep above only hits it when a
// seed lands there): a worker dies after the snapshot began but before
// every image was written; the torn snapshot must be skipped and the
// previous complete one restored, with no lost or duplicated effects.
func TestRecoveryMidSnapshotRestoresLastComplete(t *testing.T) {
	f := newRecoveryFixture(t, 42)
	cluster, sys := f.cluster, f.sys
	cluster.Start()

	// Step until the coordinator is mid-snapshot with at least one image
	// still unwritten, then kill a worker that has not written yet.
	var tornID int64
	for i := 0; ; i++ {
		if st := sys.coord.commit; st != nil && st.phase == phaseSnapshot {
			id := sys.coord.snapshotID
			meta, _ := sys.Snapshots.Get(id)
			if len(meta.Bytes) < len(sys.WorkerIDs()) {
				tornID = id
				for _, w := range sys.WorkerIDs() {
					if _, written := meta.Bytes[w]; !written {
						cluster.Crash(w)
						break
					}
				}
				break
			}
		}
		if i > 100_000 {
			t.Fatal("never caught the coordinator mid-snapshot")
		}
		cluster.RunUntil(cluster.Now() + 50*time.Microsecond)
	}
	cluster.RunUntil(20 * time.Second)

	if sys.Coordinator().Recoveries == 0 {
		t.Fatal("mid-snapshot crash did not trigger recovery")
	}
	if meta, _ := sys.Snapshots.Get(tornID); len(meta.Bytes) >= len(sys.WorkerIDs()) {
		t.Fatalf("torn snapshot %d ended up complete (%d images)", tornID, len(meta.Bytes))
	}
	for _, id := range sys.Coordinator().RestoredSnapshots {
		if id == tornID {
			t.Fatalf("recovery restored the torn snapshot %d", tornID)
		}
	}
	if len(sys.Coordinator().RestoredSnapshots) == 0 {
		t.Fatal("no restore recorded despite recovery")
	}
	if latest, ok := sys.Snapshots.Latest(); ok && latest.ID == tornID {
		t.Fatalf("Latest returned the torn snapshot %d", tornID)
	}
	f.assertExactlyOnce(t, t.Fatalf)
}

// TestCoordinatorCrashMidPipeline kills the coordinator at the pipelined
// schedule's distinctive point: two epochs in flight — N in the commit
// slot (validate/apply/snapshot, its responses possibly staged behind the
// group-commit sync), N+1 open in the exec slot with transactions already
// accepted, its epoch-advance record possibly still volatile (it rides
// N's fsync rather than paying its own). The reboot must reconstruct both
// from the log: N's committed responses replay exactly once from the
// egress buffer, N+1's uncommitted transactions re-execute from the
// source suffix, and the over-bumped epoch fences every pre-crash
// message. The retrying client forces the replay path — a response
// delivered right before the crash is suppressed on re-commit and must be
// re-served from the durable buffer.
func TestCoordinatorCrashMidPipeline(t *testing.T) {
	const n = recoveryRequests
	f := newRecoveryFixture(t, 42)
	cluster, sys, client := f.cluster, f.sys, f.client
	client.inner.RetryEvery = 20 * time.Millisecond
	inBursts(client.inner.Script, 4)
	cluster.Start()

	// Step finely until both pipeline slots are genuinely occupied: the
	// commit slot mid-protocol AND the exec slot holding accepted
	// transactions of the successor epoch — with at least one response
	// already out, so the reboot has something to suppress.
	for i := 0; ; i++ {
		if exec, commit := sys.coord.exec, sys.coord.commit; exec != nil && commit != nil &&
			len(exec.txns) > 0 && client.inner.Done > 0 {
			break
		}
		if i > 500_000 {
			t.Fatal("never caught two epochs in flight with accepted work")
		}
		cluster.RunUntil(cluster.Now() + 20*time.Microsecond)
	}
	if client.inner.Done == n {
		t.Fatal("crash not mid-run: all responses already delivered")
	}
	execEpoch := sys.coord.exec.epoch
	if commitEpoch := sys.coord.commit.epoch; execEpoch != commitEpoch+1 {
		t.Fatalf("pipeline slots hold epochs %d/%d, want adjacent", commitEpoch, execEpoch)
	}
	cluster.Crash("sf-coord")
	cluster.RunUntil(cluster.Now() + 30*time.Millisecond)
	cluster.Restart("sf-coord")
	cluster.RunUntil(20 * time.Second)

	coord := sys.Coordinator()
	if coord.Restarts == 0 {
		t.Fatal("coordinator never rebooted from the log")
	}
	if coord.MidPipelineRestarts == 0 {
		t.Fatal("reboot did not register the two-epochs-in-flight window")
	}
	// The view-change guard: the recovered epoch must fence both in-flight
	// epochs, including the possibly-volatile advance of the exec epoch.
	if sys.coord.epoch <= execEpoch {
		t.Fatalf("recovered epoch %d does not fence in-flight epoch %d",
			sys.coord.epoch, execEpoch)
	}
	if client.inner.Done != n {
		t.Fatalf("responses: %d/%d", client.inner.Done, n)
	}
	if len(client.Deliveries) != n {
		t.Fatalf("distinct responses: %d/%d", len(client.Deliveries), n)
	}
	// Exactly-once with a retrying client: the original send plus at most
	// one replay per retry the client itself solicited (a retry that
	// crosses the original response legitimately draws a second delivery
	// from the egress buffer). Unsolicited duplicates stay bugs.
	for id, count := range client.Deliveries {
		if allowed := 1 + client.inner.Retries[id]; count < 1 || count > allowed {
			t.Fatalf("request %s delivered %d times (%d retries allow %d)",
				id, count, client.inner.Retries[id], allowed)
		}
	}
	for id, resp := range client.inner.Responses {
		if resp.Err != "" {
			t.Fatalf("request %s failed: %s", id, resp.Err)
		}
	}
	for i := 0; i < 4; i++ {
		if got := balance(t, f.dep, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100 (lost or duplicated effects)", acct(i), got)
		}
	}
}

// Binding replay in batches, placed by protocol state. Each case builds the
// replay queue it wants — calls answered one at a time, so release order is
// submission order, with no snapshot after the preload — then opens a
// coordinator crash window at that instant (cluster.ScheduleCrash, the
// failover_test.go pattern): the reboot restores the preload images and
// re-executes every answered call in binding epochs. A local.Runtime runs
// the same calls serially and is what the rebuilt state must equal.

const registers = `
@entity
class Reg:
    def __init__(self, key: str, v: int, pad: str):
        self.key: str = key
        self.v: int = v
        self.pad: str = pad

    def __key__(self) -> str:
        return self.key

    def get(self) -> int:
        return self.v

    def set(self, v: int) -> int:
        self.v = v
        return v

    def add(self, d: int) -> int:
        self.v += d
        return self.v

    @transactional
    def gather(self, a: Reg, b: Reg) -> int:
        x: int = a.get()
        y: int = b.get()
        self.v = x * 1000 + y
        return self.v
`

type bindingFixture struct {
	t       *testing.T
	cluster *sim.Cluster
	sys     *ShardedSystem
	shard   *System // shard 0: the one whose coordinator the cases crash
	client  *rawClient
	serial  *local.Runtime
	keys    []string // registers homed on shard 0
	remote  string   // a register homed on another shard ("" with one shard)
	sent    int
}

// newBindingFixture deploys the register program with n registers on shard
// 0, each carrying pad bytes of payload.
func newBindingFixture(t *testing.T, n, pad int, mods ...func(*Config)) *bindingFixture {
	t.Helper()
	prog, err := compiler.Compile(registers)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	for _, mod := range mods {
		mod(&cfg)
	}
	cluster := sim.New(42)
	fx := &bindingFixture{t: t, cluster: cluster, sys: New(cluster, prog, cfg),
		client: &rawClient{}, serial: local.New(prog)}
	fx.shard = fx.sys.Shards()[0]
	payload := interp.StrV(string(make([]byte, pad)))
	for i := 0; len(fx.keys) < n || (cfg.Shards > 1 && fx.remote == ""); i++ {
		key := fmt.Sprintf("r%03d", i)
		switch home := fx.sys.ShardOf(interp.EntityRef{Class: "Reg", Key: key}); {
		case home == 0 && len(fx.keys) < n:
			fx.keys = append(fx.keys, key)
		case home != 0 && fx.remote == "":
			fx.remote = key
		default:
			continue
		}
		args := []interp.Value{interp.StrV(key), interp.IntV(int64(i)), payload}
		if err := fx.sys.PreloadEntity("Reg", args...); err != nil {
			t.Fatalf("preload: %v", err)
		}
		if err := fx.serial.PreloadEntity("Reg", args...); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	fx.sys.CheckpointPreloadedState()
	cluster.Add("client", fx.client)
	cluster.Start()
	return fx
}

// submit sends one call now and runs it on the serial reference.
func (fx *bindingFixture) submit(key, method string, args ...interp.Value) {
	fx.t.Helper()
	fx.sent++
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.IngressID(), sysapi.MsgRequest{
		Request: sysapi.Request{Req: fmt.Sprintf("b%d", fx.sent),
			Target: interp.EntityRef{Class: "Reg", Key: key}, Method: method, Args: args},
		ReplyTo: "client",
	})
	if res, err := fx.serial.Invoke("Reg", key, method, args...); err != nil || res.Err != "" {
		fx.t.Fatalf("serial %s.%s: %v %s", key, method, err, res.Err)
	}
}

// runUntil steps virtual time until cond holds.
func (fx *bindingFixture) runUntil(what string, cond func() bool) {
	fx.t.Helper()
	deadline := fx.cluster.Now() + 5*time.Second
	for !cond() {
		if fx.cluster.Now() >= deadline {
			fx.t.Fatalf("never observed: %s", what)
		}
		fx.cluster.RunUntil(fx.cluster.Now() + 20*time.Microsecond)
	}
}

// call submits one call and waits for its response, so the next call is
// released strictly after it.
func (fx *bindingFixture) call(key, method string, args ...interp.Value) {
	fx.t.Helper()
	fx.submit(key, method, args...)
	fx.runUntil("the call answered", func() bool { return len(fx.client.got) == fx.sent })
}

// crashAndReplay crashes shard 0's coordinator now for 10ms and runs the
// recovery to completion. It returns the widest binding batch the replay
// ran and whether every one of them ran with the shard fenced.
func (fx *bindingFixture) crashAndReplay() (widest int, fenced bool) {
	fx.t.Helper()
	c := fx.shard.Coordinator()
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.shard.coordID, now, now+10*time.Millisecond)
	fenced = true
	fx.runUntil("the binding replay drained", func() bool {
		for _, st := range []*epochState{c.exec, c.commit} {
			if st != nil && st.binding {
				widest = max(widest, len(st.txns))
				fenced = fenced && c.fenceSeq != 0
			}
		}
		return c.Restarts == 1 && !c.recovering && len(c.replaying) == 0 &&
			c.exec != nil && !c.exec.binding && (c.commit == nil || !c.commit.binding)
	})
	fx.cluster.RunUntil(fx.cluster.Now() + 2*time.Second)
	return widest, fenced
}

// diverged lists the registers whose rebuilt value is not the serial
// run's.
func (fx *bindingFixture) diverged() (out []string) {
	for _, key := range fx.serial.Keys("Reg") {
		want, _ := fx.serial.State("Reg", key)
		got, _ := fx.sys.EntityState("Reg", key)
		if got["v"].I != want["v"].I {
			out = append(out, fmt.Sprintf("%s=%d (serial %d)", key, got["v"].I, want["v"].I))
		}
	}
	return out
}

// bindingSchedules are the three ways a binding epoch's successor opens:
// at the decide (pipelined), from releaseCommit on the serial schedule, and
// from releaseCommit because the shard recovered inside a fence window.
var bindingSchedules = []struct {
	name   string
	fenced bool
	mod    func(*Config)
}{
	{"pipelined", false, func(*Config) {}},
	{"serial", false, func(c *Config) { c.DisablePipelining = true }},
	{"fenced", true, func(c *Config) { c.Shards = 2 }},
}

// crashWithQueue finishes a case: under the fenced schedule it first parks
// shard 0 behind a cross-shard gather (the global batch then completes
// after the replay), then crashes the coordinator, and checks what every
// case must show — a replay of exactly the answered calls, nothing
// answered twice, the shard unparked.
func (fx *bindingFixture) crashWithQueue(fenced bool) (widest int) {
	fx.t.Helper()
	queued := fx.sent
	c := fx.shard.Coordinator()
	if fenced {
		fx.submit(fx.keys[len(fx.keys)-1], "gather", interp.RefV("Reg", fx.remote), interp.RefV("Reg", fx.remote))
		fx.runUntil("shard 0 parked", func() bool { return c.fenceSeq != 0 })
	}
	widest, parked := fx.crashAndReplay()
	if c.BindingReplays != queued {
		fx.t.Fatalf("binding replays = %d, want the %d answered calls", c.BindingReplays, queued)
	}
	if fenced && (!parked || c.GlobalFences != 1 || c.GlobalApplies != 1 || c.fenceSeq != 0) {
		// The one park is the one before the crash: the recovery rebuilds
		// it from the marker, replays under it, and the batch then applies.
		fx.t.Fatalf("replayed fenced=%v, fences=%d applies=%d, still fenced=%v after a recovery inside the fence window",
			parked, c.GlobalFences, c.GlobalApplies, c.fenceSeq != 0)
	}
	if len(fx.client.got) != fx.sent {
		fx.t.Fatalf("client saw %d responses to %d calls", len(fx.client.got), fx.sent)
	}
	return widest
}

// TestBindingBatchNeverCommitsPastAnAbort is the order inversion the prefix
// cut exists for. The queue ends D: w(x); E: r(x), r(y), w(z); L: w(y), and
// three conflict-free fillers ahead of it widen the window so D, E and L
// share a batch. E aborts on D's write. L conflicts with nobody's writes,
// so Aria alone would commit it next to D — and E, re-executed in the next
// batch, would read L's y instead of the one it was answered with.
func TestBindingBatchNeverCommitsPastAnAbort(t *testing.T) {
	for _, sched := range bindingSchedules {
		t.Run(sched.name, func(t *testing.T) {
			fx := newBindingFixture(t, 8, 16, sched.mod)
			k := fx.keys
			for _, filler := range k[3:6] {
				fx.call(filler, "set", interp.IntV(7))
			}
			fx.call(k[0], "set", interp.IntV(5))                                        // D: w(x)
			fx.call(k[2], "gather", interp.RefV("Reg", k[0]), interp.RefV("Reg", k[1])) // E: r(x) r(y) w(z)
			fx.call(k[1], "set", interp.IntV(9))                                        // L: w(y)
			fx.call(k[6], "set", interp.IntV(7))
			fx.crashWithQueue(sched.fenced)
			if bad := fx.diverged(); len(bad) > 0 {
				t.Fatalf("rebuilt state is not the serial D, E, L run: %v", bad)
			}
			// [f] [f f] [D E L f] cut at E, [E] [L f].
			if c := fx.shard.Coordinator(); c.BindingEpochs != 5 || c.Aborts != 3 {
				t.Fatalf("binding epochs=%d aborts=%d, want 5 and 3 (E, and L and the filler behind it)", c.BindingEpochs, c.Aborts)
			}
		})
	}
}

// TestBindingBatchHotKeyDrainsSerially: a queue of updates to one register
// conflicts everywhere. Every batch still commits its first member, and
// the window never grows past the two it takes to find the next conflict.
func TestBindingBatchHotKeyDrainsSerially(t *testing.T) {
	const n = 12
	for _, sched := range bindingSchedules {
		t.Run(sched.name, func(t *testing.T) {
			fx := newBindingFixture(t, 2, 16, sched.mod)
			for i := 0; i < n; i++ {
				fx.call(fx.keys[0], "add", interp.IntV(int64(i+1)))
			}
			widest := fx.crashWithQueue(sched.fenced)
			if bad := fx.diverged(); len(bad) > 0 {
				t.Fatalf("rebuilt state is not the serial run: %v", bad)
			}
			if c := fx.shard.Coordinator(); c.BindingEpochs > n || widest > 2 {
				t.Fatalf("%d binding epochs for %d conflicting members, widest window %d: want one commit per epoch and a window of 1-2",
					c.BindingEpochs, n, widest)
			}
		})
	}
}

// TestBindingBatchConflictFreeQueueDoubles: 64 writes to 64 registers
// replay in windows of 1, 2, 4, … instead of 64 epochs.
func TestBindingBatchConflictFreeQueueDoubles(t *testing.T) {
	const n = 64
	for _, sched := range bindingSchedules {
		t.Run(sched.name, func(t *testing.T) {
			fx := newBindingFixture(t, n+1, 16, sched.mod)
			for i := 0; i < n; i++ {
				fx.call(fx.keys[i], "set", interp.IntV(int64(1000+i)))
			}
			fx.crashWithQueue(sched.fenced)
			if bad := fx.diverged(); len(bad) > 0 {
				t.Fatalf("rebuilt state is not the serial run: %v", bad)
			}
			if c := fx.shard.Coordinator(); c.BindingEpochs > 8 || c.Aborts != 0 {
				t.Fatalf("%d binding epochs and %d aborts for a conflict-free queue of %d, want at most 8 and none",
					c.BindingEpochs, c.Aborts, n)
			}
		})
	}
}

// TestBindingBatchEndsAtAGlobalApply: a global apply reserves nothing and
// installs at its batch's decide, after every lower TID, so no member may
// follow it in a binding batch. The queue is a filler, the apply of a
// cross-shard gather that writes x, and an add to x, all released past the
// cut. The filler's batch commits whole and doubles the window to two, which
// without the rule would put the add beside the apply: executed against x
// from before the gather, installed under the apply's image, and lost.
func TestBindingBatchEndsAtAGlobalApply(t *testing.T) {
	fx := newBindingFixture(t, 2, 16, func(c *Config) { c.Shards = 2 })
	x := fx.keys[0]
	fx.call(fx.keys[1], "set", interp.IntV(7))
	fx.call(x, "gather", interp.RefV("Reg", fx.remote), interp.RefV("Reg", fx.remote))
	fx.call(x, "add", interp.IntV(1))
	fx.crashWithQueue(false)
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("rebuilt state is not the serial filler, gather, add run: %v", bad)
	}
	// [filler] [apply] [add]: the apply's batch ends at the apply.
	if c := fx.shard.Coordinator(); c.BindingEpochs != 3 || c.Aborts != 0 {
		t.Fatalf("binding epochs=%d aborts=%d, want 3 and 0", c.BindingEpochs, c.Aborts)
	}
}

// TestBindingReplayVirtualTimeBudget holds the recovery speed the batches
// bought: 300 uniformly-keyed updates of 64 KB rows, all released past the
// cut (the benchmark's crash_big shape), must re-execute within a fixed
// stretch of virtual time — first binding epoch to queue drained, read off
// the flight recorder. Virtual time is deterministic, so the budget is not
// a noise band: the batched replay takes 168 ms, one member per 5 ms epoch
// tick took 1.5 s. The trace must show the same outage as two spans.
func TestBindingReplayVirtualTimeBudget(t *testing.T) {
	const (
		records = 250
		updates = 300
		budget  = 200 * time.Millisecond
	)
	flight, tracer := obs.NewFlightRecorder(4096), obs.NewTracer()
	fx := newBindingFixture(t, records, 64<<10, func(c *Config) { c.Flight, c.Tracer = flight, tracer })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < updates; i++ {
		fx.submit(fx.keys[rng.Intn(records)], "add", interp.IntV(int64(i+1)))
		fx.cluster.RunUntil(fx.cluster.Now() + 2*time.Millisecond) // 500 req/s
	}
	fx.runUntil("every update answered", func() bool { return len(fx.client.got) == fx.sent })
	fx.crashWithQueue(false)
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("rebuilt state lost or duplicated updates: %v", bad)
	}
	var start, took time.Duration
	recovering := false
	for _, ev := range flight.Events() {
		switch {
		case ev.Kind == "recovery":
			recovering = true
		case ev.Kind == "epoch.advance" && recovering && start == 0:
			start = ev.At
		case ev.Kind == "replay.drained":
			took = ev.At - start
		}
	}
	for _, span := range []string{"recovery.restore", "recovery.replay"} {
		if !slices.Contains(tracer.SpanNames(), span) {
			t.Errorf("trace has no %s span (got %v)", span, tracer.SpanNames())
		}
	}
	if slices.Contains(tracer.SpanNames(), "recovery.detect") {
		t.Error("a coordinator reboot has no detector term, yet the trace has a recovery.detect span")
	}
	c := fx.shard.Coordinator()
	t.Logf("binding replay: %d members in %d epochs, %v of virtual time", c.BindingReplays, c.BindingEpochs, took)
	if start == 0 || took <= 0 || took > budget {
		t.Fatalf("binding replay of %d members took %v of virtual time (%d epochs), budget %v",
			c.BindingReplays, took, c.BindingEpochs, budget)
	}
}

// ---------------------------------------------------------------------------
// The failure detector and the recovery retry. Crashes are placed by
// protocol state, like the binding cases above: a worker is killed at the
// step where the batch in flight still owes answers from it and the other
// workers are still answering.

// killMidExecute submits one update to each of the first n registers in one
// burst (they share the open epoch), steps until the coordinator has counted
// at least 4 answers while a worker still owes one, then kills that worker
// for downtime. It returns the victim and the crash instant.
func (fx *bindingFixture) killMidExecute(n int, downtime time.Duration) (victim *Worker, at time.Duration) {
	fx.t.Helper()
	c := fx.shard.Coordinator()
	before := c.progress
	for i, key := range fx.keys[:n] {
		fx.submit(key, "add", interp.IntV(int64(i+1)))
	}
	owes := func() *Worker {
		if st := c.exec; st != nil {
			for _, t := range st.txns {
				if !t.finished {
					return fx.shard.workers[fx.shard.OwnerIndex(t.req.Target)]
				}
			}
		}
		return nil
	}
	fx.runUntil("a batch part answered", func() bool { return c.progress >= before+4 && owes() != nil })
	victim, at = owes(), fx.cluster.Now()
	fx.cluster.ScheduleCrash(victim.id, at, at+downtime)
	return victim, at
}

// flightAt returns when the n-th (0-based) flight line of a kind on a node
// was recorded.
func flightAt(t *testing.T, rec *obs.FlightRecorder, node, kind string, n int) time.Duration {
	t.Helper()
	for _, ev := range rec.Events() {
		if ev.Node == node && ev.Kind == kind {
			if n == 0 {
				return ev.At
			}
			n--
		}
	}
	t.Fatalf("flight recorder has no %s line #%d for %s", kind, n, node)
	return 0
}

// TestDetectorFiresOneTimeoutAfterLastProgress: one worker dies mid-execute
// while the other four keep answering past the batch's close, so the first
// stall check finds progress. Re-armed for a fresh full timeout (the old
// rule) it would fire two timeouts after the close; the deadline is the
// last counted answer plus one.
func TestDetectorFiresOneTimeoutAfterLastProgress(t *testing.T) {
	flight, tracer := obs.NewFlightRecorder(4096), obs.NewTracer()
	fx := newBindingFixture(t, 100, 16, func(c *Config) { c.Flight, c.Tracer = flight, tracer })
	c := fx.shard.Coordinator()
	cfg := fx.shard.cfg
	_, crashedAt := fx.killMidExecute(100, 10*time.Millisecond)

	// The survivors' 20 events each outlast the 5 ms open window.
	var last, closedAt time.Duration
	fx.runUntil("the detector fired", func() bool {
		if c.Recoveries == 0 {
			last = c.progressAt
			if st := c.exec; st != nil && st.phase == phaseClosing {
				closedAt = st.phaseAt
			}
		}
		return c.Recoveries == 1
	})
	if last <= closedAt || last <= crashedAt {
		t.Fatalf("last progress at %v, batch closed at %v, crash at %v: the survivors did not answer past both, the case is vacuous",
			last, closedAt, crashedAt)
	}
	fired := flightAt(t, flight, fx.shard.coordID, "recovery", 0)
	link := cfg.Costs.WorkerLink.Base + cfg.Costs.WorkerLink.Jitter
	if gap := fired - last; gap < cfg.StallTimeout || gap > cfg.StallTimeout+link {
		t.Fatalf("Recover ran %v after the last counted answer (batch closed %v before it), want one StallTimeout of %v",
			gap, last-closedAt, cfg.StallTimeout)
	}
	if !slices.Contains(tracer.SpanNames(), "recovery.detect") {
		t.Errorf("a stall-triggered recovery left no recovery.detect span (got %v)", tracer.SpanNames())
	}
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) == fx.sent })
	if bad := fx.diverged(); len(bad) > 0 || c.Recoveries != 1 {
		t.Fatalf("recoveries=%d, diverged from the serial run: %v", c.Recoveries, bad)
	}
}

// TestDetectorArmsOneCheckForBothSlots: a worker dies while both pipeline
// slots wait on it — the commit slot for its apply ack, the exec slot, closed
// by its timer, for a finish — and the survivors keep answering past the
// first deadline. One watchdog covers both slots: no two stall checks are
// ever in flight at once, and recovery starts exactly one StallTimeout after
// the last counted answer.
func TestDetectorArmsOneCheckForBothSlots(t *testing.T) {
	fx := newBindingFixture(t, 40, 16)
	c := fx.shard.Coordinator()
	type check struct{ armed, fires time.Duration }
	var checks []check
	fx.cluster.SetTap(func(from, _ string, sentAt, at time.Duration, msg sim.Message) {
		if _, ok := msg.(msgStallCheck); ok && from == fx.shard.coordID {
			checks = append(checks, check{sentAt, at})
		}
	})
	for i, key := range fx.keys[:20] {
		fx.submit(key, "add", interp.IntV(int64(i+1)))
	}
	fx.runUntil("the first batch decided", func() bool {
		st := c.commit
		return st != nil && st.phase == phaseApply && len(c.acks) == 0
	})
	// The second batch opened at the first one's decide. The victim owns one
	// of its members and has not acked the decide: neither answer comes.
	for i, key := range fx.keys[20:] {
		fx.submit(key, "add", interp.IntV(int64(i+1)))
	}
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.regOwner(fx.keys[20]).id, now, now+10*time.Millisecond)
	var both bool
	var last time.Duration
	fx.runUntil("the detector fired", func() bool {
		if c.Recoveries == 0 {
			last = c.progressAt
			both = both || c.commit != nil && c.commit.phase == phaseApply &&
				c.exec != nil && c.exec.phase == phaseClosing
		}
		return c.Recoveries == 1
	})
	armed := len(checks)
	if !both || armed < 2 || last <= now {
		t.Fatalf("both slots waited: %v, %d checks armed, last answer at %v after a crash at %v: the case is vacuous",
			both, armed, last, now)
	}
	// The last check armed fired the recovery (Recover then runs its own
	// log sync before it stamps recoverAt).
	fired := checks[armed-1].fires
	if gap := fired - last; gap != fx.shard.cfg.StallTimeout || c.recoverAt < fired || c.recoverAt-fired > 100*time.Microsecond {
		t.Fatalf("the detector fired %v after the last counted answer and Recover stamped %v after that, want one StallTimeout of %v and only Recover's log sync",
			gap, c.recoverAt-fired, fx.shard.cfg.StallTimeout)
	}
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) == fx.sent })
	for i := 1; i < len(checks); i++ {
		if checks[i].armed < checks[i-1].fires {
			t.Fatalf("stall check %d armed at %v while check %d was in flight until %v (%d checks)",
				i, checks[i].armed, i-1, checks[i-1].fires, len(checks))
		}
	}
	if bad := fx.diverged(); len(bad) > 0 || c.Recoveries != 1 {
		t.Fatalf("recoveries=%d, diverged from the serial run: %v", c.Recoveries, bad)
	}
}

// TestSlowIsNotDead: a batch whose execution keeps the workers answering
// for more than three stall timeouts is never mistaken for a dead worker.
func TestSlowIsNotDead(t *testing.T) {
	const calls = 600 // 120 events of ~0.66 ms per worker
	fx := newBindingFixture(t, 100, 16, func(c *Config) { c.StallTimeout = 20 * time.Millisecond })
	c := fx.shard.Coordinator()
	for i := 0; i < calls; i++ {
		fx.submit(fx.keys[i%len(fx.keys)], "add", interp.IntV(1))
	}
	var closing time.Duration
	fx.runUntil("every call answered", func() bool {
		if st := c.exec; st != nil && st.phase == phaseClosing && len(st.txns) == calls {
			closing = fx.cluster.Now() - st.phaseAt
		}
		return len(fx.client.got) == fx.sent
	})
	if want := 3 * fx.shard.cfg.StallTimeout; closing < want {
		t.Fatalf("the batch executed for %v after its close, want at least %v for the case to mean anything", closing, want)
	}
	if c.Recoveries != 0 || c.RecoverRetries != 0 {
		t.Fatalf("recoveries=%d retries=%d during a slow but progressing phase", c.Recoveries, c.RecoverRetries)
	}
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("diverged from the serial run: %v", bad)
	}
}

// TestRecoveryWaitsOutAHeldDownWorker: the hold-down outlasts the stall
// timeout, so Recover runs while the victim cannot be respawned and its
// recover message is lost. The recovery must not start over: one epoch
// bump, one binding queue, and the retry picks the worker up as it reboots.
func TestRecoveryWaitsOutAHeldDownWorker(t *testing.T) {
	const answered, downtime = 20, 400 * time.Millisecond
	flight := obs.NewFlightRecorder(4096)
	fx := newBindingFixture(t, 100, 16, func(c *Config) { c.Flight = flight })
	fx.cluster.SetFlightRecorder(flight)
	c := fx.shard.Coordinator()
	for _, key := range fx.keys[:answered] {
		fx.call(key, "set", interp.IntV(7))
	}
	victim, crashedAt := fx.killMidExecute(100, downtime)

	var epoch int64
	fx.runUntil("the recovery started", func() bool { epoch = c.epoch; return c.recovering })
	if held := crashedAt + downtime - fx.cluster.Now(); held < 100*time.Millisecond {
		t.Fatalf("Recover ran with %v of hold-down left: the case needs it to start well inside", held)
	}
	fx.runUntil("the recovery finished", func() bool { return !c.recovering })
	restored := fx.cluster.Now()
	reboot := flightAt(t, flight, victim.id, "reboot", 0)
	if reboot != crashedAt+downtime || restored-reboot > 25*time.Millisecond {
		t.Fatalf("victim rebooted at %v (crash %v + %v), every worker restored %v later, want within 25ms",
			reboot, crashedAt, downtime, restored-reboot)
	}
	for _, w := range fx.shard.workers {
		if w.appliedEpoch != epoch {
			t.Fatalf("%s restored in epoch %d, the recovery's view is %d", w.id, w.appliedEpoch, epoch)
		}
	}
	if c.epoch != epoch+1 {
		t.Fatalf("epoch %d after a recovery in view %d: bumped more than once", c.epoch, epoch)
	}
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) == fx.sent })
	if c.Recoveries != 1 || len(c.RestoredSnapshots) != 1 || c.BindingReplays != answered ||
		flightLines(flight, "recovery") != 1 {
		t.Fatalf("recoveries=%d restores=%d binding replays=%d (want 1, 1, the %d answered calls), %d recovery lines",
			c.Recoveries, len(c.RestoredSnapshots), c.BindingReplays, answered, flightLines(flight, "recovery"))
	}
	if c.RecoverRetries == 0 || flightLines(flight, "recover.retry") != c.RecoverRetries {
		t.Fatalf("%d retries, %d recover.retry lines", c.RecoverRetries, flightLines(flight, "recover.retry"))
	}
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("rebuilt state is not the serial run: %v", bad)
	}
}

// TestLostRecoveredAckIsRetriedNotReentered: one worker restores but its
// ack is lost. The retry re-sends the same recover message to it alone; the
// worker answers the duplicate with a bare re-ack — its restored store is
// not replaced a second time — and the recovery completes as the one it is.
func TestLostRecoveredAckIsRetriedNotReentered(t *testing.T) {
	flight := obs.NewFlightRecorder(4096)
	fx := newBindingFixture(t, 100, 16, func(c *Config) { c.Flight = flight })
	c := fx.shard.Coordinator()
	loser := fx.shard.workers[0]
	dropped, recovers := 0, 0
	fx.cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		switch msg.(type) {
		case msgRecovered:
			if from == loser.id && dropped == 0 {
				dropped++
				return sim.Perturb{Drop: true}
			}
		case msgRecover:
			if to == loser.id {
				recovers++
			}
		}
		return sim.Perturb{}
	})
	for _, key := range fx.keys[:10] {
		fx.call(key, "set", interp.IntV(7))
	}
	victim, _ := fx.killMidExecute(100, 10*time.Millisecond)
	if victim == loser {
		loser = fx.shard.workers[1] // keep the two faults on different workers
	}

	fx.runUntil("the loser restored", func() bool { return c.recovering && loser.appliedEpoch == c.epoch })
	store := loser.committed
	fx.runUntil("the recovery finished", func() bool { return !c.recovering })
	if loser.committed != store {
		t.Fatal("the duplicate recover message replaced the store the worker had already restored")
	}
	if dropped != 1 || recovers != 2 || c.RecoverRetries != 1 {
		t.Fatalf("dropped %d acks, %d recover messages to %s, %d retries: want 1, 2 and 1", dropped, recovers, loser.id, c.RecoverRetries)
	}
	for _, ev := range flight.Events() {
		if ev.Kind == "recover.retry" && !strings.HasSuffix(ev.Detail, "re-sent to "+loser.id) {
			t.Fatalf("retry went to more than the one missing worker: %q", ev.Detail)
		}
	}
	reg := obs.NewRegistry()
	fx.shard.RegisterMetrics(reg)
	if got := reg.Snapshot()["stateflow.coordinator.recover_retries"]; got != 1 {
		t.Fatalf("stateflow.coordinator.recover_retries = %d, want 1", got)
	}
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) == fx.sent })
	if bad := fx.diverged(); len(bad) > 0 || c.Recoveries != 1 {
		t.Fatalf("recoveries=%d, diverged from the serial run: %v", c.Recoveries, bad)
	}
}

// TestWorkerOutageVirtualTimeBudget holds what a client sees of a worker
// failure — the benchmark's crash_big shape in one deterministic run: 250
// rows of 64 KB, updates at 500 req/s throughout, one worker held down for
// 300 ms after 300 answered updates. The longest stretch without a
// response is the hold-down, the restore, the binding replay and the first
// fresh batch (556 ms); before the detector measured its patience from the
// last answer and the recovery retried by itself, the same run was silent
// for 766–1,084 ms, depending on where the first stall check landed (one
// recovery or two).
func TestWorkerOutageVirtualTimeBudget(t *testing.T) {
	const (
		records  = 250
		warm     = 300
		downtime = 300 * time.Millisecond
		tick     = 2 * time.Millisecond // 500 req/s
		budget   = 650 * time.Millisecond
	)
	fx := newBindingFixture(t, records, 64<<10)
	rng := rand.New(rand.NewSource(7))
	var longest, lastAt time.Duration
	seen := 0
	step := func() {
		fx.submit(fx.keys[rng.Intn(records)], "add", interp.IntV(1))
		fx.cluster.RunUntil(fx.cluster.Now() + tick)
		if len(fx.client.got) > seen {
			seen = len(fx.client.got)
			longest = max(longest, fx.cluster.Now()-lastAt)
			lastAt = fx.cluster.Now()
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	longest = 0 // the warm-up's gaps are epochs, not the outage
	victim := fx.shard.workers[0]
	fx.cluster.ScheduleCrash(victim.id, fx.cluster.Now(), fx.cluster.Now()+downtime)
	for i := 0; i < int(2*time.Second/tick); i++ {
		step()
	}
	fx.runUntil("every update answered", func() bool { return len(fx.client.got) == fx.sent })
	c := fx.shard.Coordinator()
	t.Logf("longest response gap %v: %d recoveries, %d retries, %d binding replays",
		longest, c.Recoveries, c.RecoverRetries, c.BindingReplays)
	if c.Recoveries != 1 || longest < downtime || longest > budget {
		t.Fatalf("longest response gap %v with %d recoveries, want one recovery and a gap between the %v hold-down and %v",
			longest, c.Recoveries, downtime, budget)
	}
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("rebuilt state lost or duplicated updates: %v", bad)
	}
}

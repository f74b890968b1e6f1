package statefun

import (
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/queue"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

const bank = `
@entity
class Account:
    def __init__(self, owner: str, balance: int):
        self.owner: str = owner
        self.balance: int = balance

    def __key__(self) -> str:
        return self.owner

    def read(self) -> int:
        return self.balance

    def update(self, amount: int) -> int:
        self.balance += amount
        return self.balance

    def deposit(self, amount: int) -> bool:
        self.balance += amount
        return True

    def transfer(self, amount: int, to: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        to.deposit(amount)
        return True
`

type fixture struct {
	cluster *sim.Cluster
	sys     *System
	client  *sysapi.ScriptClient
}

func newFixture(t *testing.T, accounts int, script []sysapi.Scheduled) *fixture {
	t.Helper()
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cluster := sim.New(7)
	sys := New(cluster, prog, DefaultConfig())
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	client := sysapi.NewScriptClient("client", sys, script)
	cluster.Add("client", client)
	cluster.Start()
	return &fixture{cluster: cluster, sys: sys, client: client}
}

func acct(i int) string { return fmt.Sprintf("acct-%03d", i) }

func readReq(id, key string) sysapi.Request {
	return sysapi.Request{
		Req:    id,
		Target: interp.EntityRef{Class: "Account", Key: key},
		Method: "read",
		Kind:   "read",
	}
}

func updateReq(id, key string, amount int64) sysapi.Request {
	return sysapi.Request{
		Req:    id,
		Target: interp.EntityRef{Class: "Account", Key: key},
		Method: "update",
		Args:   []interp.Value{interp.IntV(amount)},
		Kind:   "update",
	}
}

func transferReq(id, from, to string, amount int64) sysapi.Request {
	return sysapi.Request{
		Req:    id,
		Target: interp.EntityRef{Class: "Account", Key: from},
		Method: "transfer",
		Args:   []interp.Value{interp.IntV(amount), interp.RefV("Account", to)},
		Kind:   "transfer",
	}
}

func balance(t *testing.T, sys *System, key string) int64 {
	t.Helper()
	st, ok := sys.EntityState("Account", key)
	if !ok {
		t.Fatalf("account %s missing", key)
	}
	return st["balance"].I
}

func TestReadThroughPipeline(t *testing.T) {
	fx := newFixture(t, 1, []sysapi.Scheduled{
		{At: time.Millisecond, Req: readReq("r1", acct(0))},
	})
	fx.cluster.RunUntil(time.Second)
	resp, ok := fx.client.Responses["r1"]
	if !ok {
		t.Fatal("no response")
	}
	if resp.Err != "" {
		t.Fatalf("error: %s", resp.Err)
	}
	if resp.Value.I != 100 {
		t.Fatalf("read: %v", resp.Value)
	}
}

func TestUpdatePersists(t *testing.T) {
	fx := newFixture(t, 1, []sysapi.Scheduled{
		{At: time.Millisecond, Req: updateReq("u1", acct(0), 25)},
		{At: 200 * time.Millisecond, Req: readReq("r1", acct(0))},
	})
	fx.cluster.RunUntil(time.Second)
	if got := fx.client.Responses["r1"].Value.I; got != 125 {
		t.Fatalf("read after update: %d", got)
	}
	if got := balance(t, fx.sys, acct(0)); got != 125 {
		t.Fatalf("state: %d", got)
	}
}

func TestTransferChainsThroughKafka(t *testing.T) {
	fx := newFixture(t, 2, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t1", acct(0), acct(1), 40)},
	})
	fx.cluster.RunUntil(2 * time.Second)
	resp := fx.client.Responses["t1"]
	if resp.Err != "" || !resp.Value.B {
		t.Fatalf("transfer: %+v", resp)
	}
	if balance(t, fx.sys, acct(0)) != 60 || balance(t, fx.sys, acct(1)) != 140 {
		t.Fatalf("balances: %d/%d", balance(t, fx.sys, acct(0)), balance(t, fx.sys, acct(1)))
	}
	// Chaining re-inserts events through the broker: the ingress topic
	// holds the client request and the deposit invoke. The transfer's
	// state-free `return True` runs where the deposit returns, so no resume
	// record is chained back to the payer.
	if total := logRecords(fx.sys.Log, "ingress", -1); total != 2 {
		t.Fatalf("expected the request and one chained re-insertion in the ingress topic, got %d records", total)
	}
}

// logRecords counts the records partition p of a topic holds, or with p < 0
// those of every partition, reading them through Fetch: offsets until one
// reads nothing, partitions until Fetch refuses one.
func logRecords(l *queue.Log, topic string, p int) (n int64) {
	for part := max(p, 0); p < 0 || part == p; part++ {
		for off := int64(0); ; off++ {
			_, ok, err := l.Fetch(topic, part, off)
			if err != nil {
				return n
			}
			if !ok {
				break
			}
			n++
		}
	}
	return n
}

func TestReadAndWriteCostTheSame(t *testing.T) {
	// §4: "the cost of reads and writes are the same due to the network
	// costs" — both pay broker + remote-fn roundtrips.
	var script []sysapi.Scheduled
	for i := 0; i < 40; i++ {
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 20 * time.Millisecond, Req: readReq(fmt.Sprintf("r%d", i), acct(0)),
		})
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1)*20*time.Millisecond + 10*time.Millisecond, Req: updateReq(fmt.Sprintf("u%d", i), acct(0), 1),
		})
	}
	fx := newFixture(t, 1, script)
	fx.cluster.RunUntil(5 * time.Second)
	r := fx.client.PerKind["read"].Snapshot().Mean
	u := fx.client.PerKind["update"].Snapshot().Mean
	ratio := float64(u) / float64(r)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("read/update asymmetry too large: read=%s update=%s", r, u)
	}
}

func TestLostUpdateRace(t *testing.T) {
	// No locking: two updates land on the same key back-to-back; the
	// second ships the same base state as the first, so one increment is
	// lost (§3: "race conditions ... could lead to state inconsistencies").
	fx := newFixture(t, 1, []sysapi.Scheduled{
		{At: time.Millisecond, Req: updateReq("u1", acct(0), 10)},
		{At: time.Millisecond + 50*time.Microsecond, Req: updateReq("u2", acct(0), 10)},
	})
	fx.cluster.RunUntil(2 * time.Second)
	if fx.client.Done != 2 {
		t.Fatalf("responses: %d", fx.client.Done)
	}
	got := balance(t, fx.sys, acct(0))
	if got != 110 {
		// The race requires both events to be in flight together; with
		// the poll-delay jitter both usually arrive in one batch. If this
		// starts flaking after cost-model changes, widen the window.
		t.Fatalf("expected lost update (110), got %d", got)
	}
	var races int
	for _, w := range fx.sys.workers {
		races += w.Races
	}
	if races == 0 {
		t.Fatal("expected recorded concurrent access")
	}
}

func TestEntityCreation(t *testing.T) {
	fx := newFixture(t, 0, []sysapi.Scheduled{
		{At: time.Millisecond, Req: sysapi.Request{
			Req:    "c1",
			Target: interp.EntityRef{Class: "Account", Key: "fresh"},
			Method: "__init__",
			Args:   []interp.Value{interp.StrV("fresh"), interp.IntV(7)},
		}},
		{At: 300 * time.Millisecond, Req: readReq("r1", "fresh")},
	})
	fx.cluster.RunUntil(time.Second)
	if resp := fx.client.Responses["c1"]; resp.Err != "" {
		t.Fatalf("create: %s", resp.Err)
	}
	if got := fx.client.Responses["r1"].Value.I; got != 7 {
		t.Fatalf("read new entity: %d", got)
	}
}

func TestMissingEntityError(t *testing.T) {
	fx := newFixture(t, 0, []sysapi.Scheduled{
		{At: time.Millisecond, Req: readReq("r1", "ghost")},
	})
	fx.cluster.RunUntil(time.Second)
	if resp := fx.client.Responses["r1"]; resp.Err == "" {
		t.Fatal("expected error for missing entity")
	}
}

func TestLatencyDominatedByBrokerHops(t *testing.T) {
	// A simple read pays two broker deliveries (ingress + egress) plus the
	// remote-fn roundtrip; latency must clearly exceed the raw link time
	// and stay sub-100ms (§4).
	var script []sysapi.Scheduled
	for i := 0; i < 30; i++ {
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 25 * time.Millisecond, Req: readReq(fmt.Sprintf("r%d", i), acct(0)),
		})
	}
	fx := newFixture(t, 1, script)
	fx.cluster.RunUntil(5 * time.Second)
	mean := fx.client.Latency.Snapshot().Mean
	if mean < 10*time.Millisecond {
		t.Fatalf("latency implausibly low for broker-based chaining: %s", mean)
	}
	if fx.client.Latency.Percentile(99) > 100*time.Millisecond {
		t.Fatalf("p99 above the paper's sub-100ms envelope: %s", fx.client.Latency.Percentile(99))
	}
}

func TestTransfersSlowerThanReads(t *testing.T) {
	// Chaining through the broker makes multi-entity calls pay extra
	// roundtrips.
	var script []sysapi.Scheduled
	for i := 0; i < 20; i++ {
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 40 * time.Millisecond, Req: readReq(fmt.Sprintf("r%d", i), acct(0)),
		})
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(i+1)*40*time.Millisecond + 20*time.Millisecond,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(2), acct(3), 1),
		})
	}
	fx := newFixture(t, 4, script)
	fx.cluster.RunUntil(5 * time.Second)
	r := fx.client.PerKind["read"].Snapshot().Mean
	tr := fx.client.PerKind["transfer"].Snapshot().Mean
	if tr <= r {
		t.Fatalf("transfer (%s) should exceed read (%s)", tr, r)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		var script []sysapi.Scheduled
		for i := 0; i < 15; i++ {
			script = append(script, sysapi.Scheduled{
				At: time.Duration(i+1) * 10 * time.Millisecond, Req: readReq(fmt.Sprintf("r%d", i), acct(i%3)),
			})
		}
		fx := newFixture(t, 3, script)
		fx.cluster.RunUntil(3 * time.Second)
		return fx.client.Latency.Percentile(99)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %s vs %s", a, b)
	}
}

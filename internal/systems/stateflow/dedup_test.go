package stateflow

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// builderTransfer mints a builder-format transfer request: ids carry the
// <source><incarnation>.<sequence> structure the incarnation dedup floor
// depends on (script-style ids like "t0" opt out of floor dedup).
func builderTransfer(b *sysapi.Builder, from, to string, amount int64) sysapi.Request {
	r := b.Next(interp.EntityRef{Class: "Account", Key: from}, "transfer",
		[]interp.Value{interp.IntV(amount), interp.RefV("Account", to)}, "transfer")
	return r
}

// TestLateDuplicateAbsorbedAfterPruning closes the loop on the
// incarnation dedup floor: a duplicate arriving after DedupRetention
// pruned its delivered-entry can no longer be answered from the egress
// buffer — the recorded response is gone — so the only exactly-once
// option is to absorb it without re-executing. The test
//
//   - answers a first wave of builder-minted transfers, then keeps the
//     system busy long enough that the retention window and the snapshot
//     offset both pass the wave, pruning its dedup entries and raising
//     the source's floor;
//   - reboots the coordinator after the prune, so the floor must come
//     back from the durable checkpoint, not coordinator memory;
//   - re-sends the first wave's first request as a very late wire
//     duplicate and asserts it is absorbed: counted by LateDuplicates,
//     never re-executed (balances stay conserved), never answered twice.
func TestLateDuplicateAbsorbedAfterPruning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	cfg.DedupRetention = 50 * time.Millisecond

	wave := sysapi.NewBuilder("cl-")
	var script []sysapi.Scheduled
	var firstWave []sysapi.Request
	for i := 0; i < 8; i++ {
		req := builderTransfer(wave, acct(i%4), acct((i+1)%4), 1)
		firstWave = append(firstWave, req)
		script = append(script, sysapi.Scheduled{At: time.Duration(i+1) * 5 * time.Millisecond, Req: req})
	}
	// Background traffic from a second source keeps epochs closing and
	// snapshots sealing, so the retention prune actually runs and the
	// snapshot offset passes the first wave's log positions.
	bg := sysapi.NewBuilder("bg-")
	for i := 0; i < 20; i++ {
		script = append(script, sysapi.Scheduled{
			At:  100*time.Millisecond + time.Duration(i)*10*time.Millisecond,
			Req: builderTransfer(bg, acct(i%4), acct((i+1)%4), 1),
		})
	}

	prog, cerr := compiler.Compile(bank)
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	cluster := sim.New(7)
	dep := New(cluster, prog, cfg)
	sys := dep.Single()
	for i := 0; i < 4; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	client := &countingClient{
		inner:      sysapi.NewScriptClient("client", dep, script),
		Deliveries: map[string]int{},
	}
	cluster.Add("client", client)
	cluster.Start()
	cluster.RunUntil(350 * time.Millisecond)

	coord := sys.Coordinator()
	const total = 28
	if client.inner.Done != total {
		t.Fatalf("settled %d/%d requests before the duplicate", client.inner.Done, total)
	}
	dupID := firstWave[0].Req
	if _, held := coord.journal.delivered(dupID); held {
		t.Fatalf("%s still in the delivered buffer; retention never pruned it, the test exercises nothing", dupID)
	}
	src, seq, ok := sysapi.SplitID(dupID)
	if !ok {
		t.Fatalf("%s did not split as a builder id", dupID)
	}
	if floor := coord.journal.dedupFloor[src]; floor < seq {
		t.Fatalf("dedup floor for %s is %d, want >= %d after the prune", src, floor, seq)
	}

	// Reboot the coordinator: the floor must survive via the checkpoint.
	cluster.Crash("sf-coord")
	cluster.RunUntil(cluster.Now() + 30*time.Millisecond)
	cluster.Restart("sf-coord")
	cluster.RunUntil(cluster.Now() + 60*time.Millisecond)
	coord = sys.Coordinator()
	if floor := coord.journal.dedupFloor[src]; floor < seq {
		t.Fatalf("dedup floor for %s is %d after reboot, want >= %d (floors not durable)", src, floor, seq)
	}

	// The very late duplicate: same id, same payload, straight at the
	// ingress — the wire copy that spent an eternity in flight.
	cluster.Inject(cluster.Now()+time.Millisecond, "client", "sf-coord",
		sysapi.MsgRequest{Request: firstWave[0], ReplyTo: "client"})
	cluster.RunUntil(cluster.Now() + 200*time.Millisecond)

	if coord.LateDuplicates == 0 {
		t.Fatal("late duplicate was not absorbed by the dedup floor (LateDuplicates == 0)")
	}
	if n := client.Deliveries[dupID]; n != 1 {
		t.Fatalf("request %s delivered %d times, want exactly 1", dupID, n)
	}
	if client.inner.Done != total {
		t.Fatalf("response count moved to %d after the duplicate, want %d", client.inner.Done, total)
	}
	sum := int64(0)
	for i := 0; i < 4; i++ {
		sum += balance(t, dep, acct(i))
	}
	if sum != 400 {
		t.Fatalf("balances sum to %d, want 400 (the duplicate re-executed)", sum)
	}
	for i := 0; i < 4; i++ {
		if got := balance(t, dep, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100 (lost or duplicated effects)", acct(i), got)
		}
	}
}

// TestDupSafeIsTotal: the chaos engine duplicates a delivery only where the
// failure contract's DupSafe admits it, so a message type the contract does
// not name is silently never duplicated — the weakening a message that turns
// into a pointer (*msgDecide) invites, since a case naming the value type
// still compiles. A 1-shard and a 4-shard deployment run a mix of transfers
// (conflicting ones included, so a chain runs), fast reads and, on 4 shards,
// cross-shard transfers through snapshots and a pinned crash of a worker, a
// coordinator and the sequencer; every message sent between two components
// must be duplicate-safe, except msgTxnEvent, the one exclusion the
// contract's comment argues — and the contract must not declare it safe:
// a forwarded hop and the call chain it carries rely on its never being
// duplicated. msgTxnEvent is in the floor, so the type actually sent is the
// one excluded.
func TestDupSafeIsTotal(t *testing.T) {
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			const accounts = 16
			cfg := DefaultConfig()
			cfg.SnapshotEvery = 4
			cfg.Shards = shards
			cluster := sim.New(11)
			sys := New(cluster, prog, cfg)
			for i := 0; i < accounts; i++ {
				if err := sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
					t.Fatalf("preload: %v", err)
				}
			}
			sys.CheckpointPreloadedState()
			a, c := accountPair(t, sys, accounts, false)
			pairs := [][2]string{{a, c}, {c, a}}
			if shards > 1 {
				from, to := accountPair(t, sys, accounts, true)
				pairs = append(pairs, [2]string{from, to})
			}
			b := sysapi.NewBuilder("cl-")
			var script []sysapi.Scheduled
			for i := 0; i < 500; i++ {
				at := time.Duration(i+1) * 2 * time.Millisecond
				if i%5 == 4 {
					script = append(script, sysapi.Scheduled{At: at, Req: b.Next(
						interp.EntityRef{Class: "Account", Key: acct(i % accounts)}, "read", nil, "read")})
					continue
				}
				p := pairs[i%len(pairs)]
				script = append(script, sysapi.Scheduled{At: at, Req: builderTransfer(b, p[0], p[1], 1)})
			}
			client := sysapi.NewScriptClient("client", sys, script)
			client.RetryEvery = 50 * time.Millisecond
			cluster.Add("client", client)

			shard := sys.Shards()[0]
			crash := func(id string, at time.Duration) { cluster.ScheduleCrash(id, at, at+20*time.Millisecond) }
			crash(shard.workerIDs[0], 60*time.Millisecond)
			crash(shard.coordID, 500*time.Millisecond)
			if sys.seq != nil {
				crash(sequencerID, 750*time.Millisecond)
			}

			contract := sys.ChaosTopology()
			seen, undeclared := map[string]bool{}, map[string]bool{}
			eventDupSafe := false
			cluster.SetTap(func(from, to string, _, _ time.Duration, msg sim.Message) {
				if from == to {
					return // a timer
				}
				name := fmt.Sprintf("%T", msg)
				seen[name] = true
				_, excluded := msg.(msgTxnEvent)
				if safe := contract.DupSafe(from, to, msg); excluded && safe {
					eventDupSafe = true
				} else if !excluded && !safe {
					undeclared[name] = true
				}
			})
			cluster.Start()
			cluster.RunUntil(6 * time.Second)

			if client.Done != len(script) {
				t.Fatalf("settled %d/%d requests", client.Done, len(script))
			}
			if c := shard.Coordinator(); c.Restarts == 0 || c.Recoveries < 2 {
				t.Fatalf("%d recoveries, %d restarts: a pinned crash exercised nothing", c.Recoveries, c.Restarts)
			}
			if sys.seq != nil && sys.seq.Failovers == 0 {
				t.Fatal("the sequencer never failed over")
			}
			floor := []sim.Message{msgTxnEvent{}, &msgDecide{}, msgApplied{}, msgTxnFinished{}, msgRecover{}, msgTakeSnapshot{}, msgChainRelease{}}
			if shards > 1 {
				floor = append(floor, msgFence{}, msgSeqFenceQuery{})
			}
			for _, m := range floor {
				if name := fmt.Sprintf("%T", m); !seen[name] {
					t.Errorf("the run sent no %s: the check is vacuous for it (saw %v)", name, slices.Sorted(maps.Keys(seen)))
				}
			}
			if eventDupSafe {
				// A forwarded hop's body and event are the receiver's to own
				// (msgTxnEvent, core.Context): a duplicate would step the same
				// event, and grow the same call chain, twice.
				t.Error("DupSafe declares msgTxnEvent duplicate-safe")
			}
			if len(undeclared) > 0 {
				t.Errorf("message types sent between components that DupSafe does not declare: %v", slices.Sorted(maps.Keys(undeclared)))
			}
		})
	}
}

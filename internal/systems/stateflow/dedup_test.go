package stateflow

import (
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
	sys := New(cluster, prog, cfg).Single()
	for i := 0; i < 4; i++ {
		if err := sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
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
	cluster.RunUntil(350 * time.Millisecond)

	coord := sys.Coordinator()
	const total = 28
	if client.inner.Done != total {
		t.Fatalf("settled %d/%d requests before the duplicate", client.inner.Done, total)
	}
	dupID := firstWave[0].Req
	if _, held := coord.journal.delivered[dupID]; held {
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
		sum += balance(t, sys, acct(i))
	}
	if sum != 400 {
		t.Fatalf("balances sum to %d, want 400 (the duplicate re-executed)", sum)
	}
	for i := 0; i < 4; i++ {
		if got := balance(t, sys, acct(i)); got != 100 {
			t.Fatalf("%s: balance %d, want 100 (lost or duplicated effects)", acct(i), got)
		}
	}
}

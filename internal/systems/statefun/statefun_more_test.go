package statefun

import (
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// TestIngressDedupWindowBounded pins the broker dedup set's retention
// contract (the same horizon the StateFlow coordinator applies to its
// seen/delivered maps): a duplicate inside the window is suppressed and
// refreshes the window (a steadily retrying client is never evicted mid
// flight, however long it retries), the entry is pruned once the window
// passes with no further arrivals — so the set stays bounded and, by the
// documented trade-off, a duplicate lagging the window re-executes.
func TestIngressDedupWindowBounded(t *testing.T) {
	retention := DefaultConfig().DedupRetention // 30s
	fx := newFixture(t, 1, []sysapi.Scheduled{
		{At: time.Millisecond, Req: updateReq("dup", acct(0), 10)},
		// In-window duplicate: deduped, window refreshed.
		{At: 100 * time.Millisecond, Req: updateReq("dup", acct(0), 10)},
		// 29s later — inside the window of the 100ms refresh: deduped
		// and refreshed again.
		{At: 29 * time.Second, Req: updateReq("dup", acct(0), 10)},
		// 45s: more than one retention after the FIRST arrival, but only
		// 16s after the last refresh — still deduped (the refresh is
		// what keeps a retrying in-flight request safe).
		{At: 45 * time.Second, Req: updateReq("dup", acct(0), 10)},
		// 80s: a full window after the last arrival at 45s. The entry
		// was pruned; this lagging duplicate re-executes (the
		// dedup-window contract, not a bug).
		{At: 80 * time.Second, Req: updateReq("dup", acct(0), 10)},
	})
	fx.cluster.RunUntil(retention / 2)
	if got := balance(t, fx.sys, acct(0)); got != 110 {
		t.Fatalf("after in-window duplicate: balance %d, want 110 (deduped once)", got)
	}
	fx.cluster.RunUntil(50 * time.Second)
	if got := balance(t, fx.sys, acct(0)); got != 110 {
		t.Fatalf("after refresh chain: balance %d, want 110 (retrying id must stay deduped)", got)
	}
	fx.cluster.RunUntil(100 * time.Second)
	if got := balance(t, fx.sys, acct(0)); got != 120 {
		t.Fatalf("after out-of-window duplicate: balance %d, want 120 (entry pruned, re-executed)", got)
	}
	// The set itself is bounded: the pre-window ids are gone.
	b := fx.sys.broker
	if len(b.seen) != len(b.seenOrder) {
		t.Fatalf("seen map (%d) and FIFO (%d) diverge", len(b.seen), len(b.seenOrder))
	}
	if len(b.seen) != 1 {
		t.Fatalf("dedup set not pruned: %d entries, want 1 (only the post-window arrival)", len(b.seen))
	}
}

func TestEgressDedupes(t *testing.T) {
	fx := newFixture(t, 1, []sysapi.Scheduled{
		{At: time.Millisecond, Req: readReq("r1", acct(0))},
	})
	fx.cluster.RunUntil(time.Second)
	// Replay the egress record manually: the egress must drop it.
	if logRecords(fx.sys.Log, "egress", 0) == 0 {
		t.Fatal("no egress records")
	}
	rec, _, _ := fx.sys.Log.Fetch("egress", 0, 0)
	fx.cluster.Inject(fx.cluster.Now(), "kafka", "fl-egress", msgRecord{Env: rec.Payload.(envelope)})
	fx.cluster.RunUntil(fx.cluster.Now() + time.Second)
	if fx.client.Done != 1 {
		t.Fatalf("duplicate delivered: %d", fx.client.Done)
	}
}

func TestKeyForCtor(t *testing.T) {
	fx := newFixture(t, 0, nil)
	key, err := fx.sys.KeyForCtor("Account", []interp.Value{
		interp.StrV("alice"), interp.IntV(1),
	})
	if err != nil || key != "alice" {
		t.Fatalf("key: %q %v", key, err)
	}
	if _, err := fx.sys.KeyForCtor("Ghost", nil); err == nil {
		t.Fatal("unknown class")
	}
}

func TestIngressRecordsAreReplayable(t *testing.T) {
	// Every client request and every chained event lands in the log, so a
	// replayable source exists for the whole pipeline.
	fx := newFixture(t, 2, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t1", acct(0), acct(1), 5)},
		{At: 2 * time.Millisecond, Req: readReq("r1", acct(0))},
	})
	fx.cluster.RunUntil(2 * time.Second)
	total := logRecords(fx.sys.Log, "ingress", -1)
	// 2 client requests + the transfer's one chained re-insertion (the
	// deposit invoke). Its continuation, `return True`, reads no state, so
	// it runs where the deposit returns and no resume record follows.
	if total != 3 {
		t.Fatalf("ingress records: %d, want 3", total)
	}
}

func TestRemoteRuntimeLoadBalancing(t *testing.T) {
	var script []sysapi.Scheduled
	for i := 0; i < 30; i++ {
		script = append(script, sysapi.Scheduled{
			At: time.Duration(i+1) * 5 * time.Millisecond, Req: readReq(reqID(i), acct(0)),
		})
	}
	fx := newFixture(t, 1, script)
	fx.cluster.RunUntil(5 * time.Second)
	// Round-robin dispatch must spread invocations over all runtimes.
	for _, fn := range fx.sys.fns {
		if fn.Invocations == 0 {
			t.Fatalf("runtime %s idle", fn.id)
		}
	}
}

func reqID(i int) string { return "r" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// TestIngressFloorAbsorbsPostPruneDuplicate pins the broker's per-source
// dedup floor, the statefun-side port of the StateFlow coordinator's
// dedupFloor (see stateflow's TestLateDuplicateAbsorbedAfterPruning).
// Pre-fix, the ingress dedup set was the broker's ONLY duplicate
// defense: once retention pruned a builder-minted id's seen-entry, a
// very late wire duplicate of that id was re-produced into the ingress
// topic and the update executed a second time. Post-fix, pruning a
// builder id raises its source's floor, and any arrival at or below the
// floor is absorbed (counted in LateDuplicates) instead of re-produced.
// mutants/statefun-floor-unchecked.patch re-opens the pre-fix hole, and
// this test must then fail on the double execution the floor prevents.
// (The broker models a durable external log and is not crashable in the
// sim, so unlike the StateFlow pin there is no reboot leg here.)
func TestIngressFloorAbsorbsPostPruneDuplicate(t *testing.T) {
	script := func() (first sysapi.Request, sched []sysapi.Scheduled) {
		b := sysapi.NewBuilder("cl-")
		first = b.Next(interp.EntityRef{Class: "Account", Key: acct(0)}, "update",
			[]interp.Value{interp.IntV(10)}, "update")
		probe := b.Next(interp.EntityRef{Class: "Account", Key: acct(0)}, "read", nil, "read")
		return first, []sysapi.Scheduled{
			{At: time.Millisecond, Req: first},
			// A full retention window later: this arrival's prune pass
			// retires first's seen-entry and (post-fix) records the floor.
			{At: 40 * time.Second, Req: probe},
			// The very late wire duplicate, well past the prune.
			{At: 50 * time.Second, Req: first},
		}
	}

	t.Run("floor", func(t *testing.T) {
		first, sched := script()
		fx := newFixture(t, 1, sched) // default config: retention 30s, floor on
		fx.cluster.RunUntil(60 * time.Second)
		src, seq, ok := sysapi.SplitID(first.Req)
		if !ok {
			t.Fatalf("%s did not split as a builder id", first.Req)
		}
		if got := balance(t, fx.sys, acct(0)); got != 110 {
			t.Fatalf("balance %d, want 110 (the late duplicate re-executed)", got)
		}
		br := fx.sys.broker
		if br.LateDuplicates == 0 {
			t.Fatal("late duplicate was not absorbed by the floor (LateDuplicates == 0)")
		}
		if _, held := br.seen[first.Req]; held {
			t.Fatalf("%s still in the dedup set; retention never pruned it, the test exercises nothing", first.Req)
		}
		if floor := br.floors[src]; floor < seq {
			t.Fatalf("floor for %s is %d, want >= %d after the prune", src, floor, seq)
		}
	})

	// Ids that only look like first's sequence are requests of their own:
	// a floor reads Builder.At's spelling only (sysapi.SplitID).
	t.Run("spellings", func(t *testing.T) {
		first, sched := script()
		sched = sched[:2]
		for i, id := range []string{"cl-1.01", "cl-1.+1", "cl-1.-0"} {
			fresh := first
			fresh.Req = id
			sched = append(sched, sysapi.Scheduled{At: time.Duration(50+i) * time.Second, Req: fresh})
		}
		fx := newFixture(t, 1, sched)
		fx.cluster.RunUntil(60 * time.Second)
		if br := fx.sys.broker; br.LateDuplicates != 0 {
			t.Fatalf("%d fresh requests absorbed as late duplicates of %s", br.LateDuplicates, first.Req)
		}
		if got := balance(t, fx.sys, acct(0)); got != 140 {
			t.Fatalf("balance %d, want 140 (first and the three fresh updates)", got)
		}
	})
}

package stateflow

import (
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

func TestQueryLiveSeesCommittedState(t *testing.T) {
	fx := newFixture(t, DefaultConfig(), 4, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t1", acct(0), acct(1), 25)},
	})
	fx.cluster.RunUntil(time.Second)
	rows, err := fx.sys.Query("Account", QueryLive)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Sorted by key, consistent totals.
	if rows[0].Key != acct(0) || rows[0].State["balance"].I != 75 {
		t.Fatalf("row0: %+v", rows[0])
	}
	if got := AggregateInt(rows, "balance"); got != 400 {
		t.Fatalf("aggregate: %d", got)
	}
}

func TestQuerySnapshotIsConsistentButStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1 // snapshot after every batch
	fx := newFixture(t, cfg, 2, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t1", acct(0), acct(1), 10)},
	})
	// Run long enough for t1's batch and its snapshot to complete.
	fx.cluster.RunUntil(100 * time.Millisecond)
	snapRows, err := fx.sys.Query("Account", QuerySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot is a consistent cut: total conserved no matter which
	// epoch it captured.
	if got := AggregateInt(snapRows, "balance"); got != 200 {
		t.Fatalf("snapshot aggregate: %d", got)
	}

	// Submit another transfer and query the snapshot again BEFORE its
	// snapshot completes: the cut must remain the old, conserved state.
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.dep.IngressID(), sysapi.MsgRequest{
		Request: transferReq("t2", acct(1), acct(0), 5), ReplyTo: "client",
	})
	fx.cluster.RunUntil(fx.cluster.Now() + time.Millisecond)
	rows2, err := fx.sys.Query("Account", QuerySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if got := AggregateInt(rows2, "balance"); got != 200 {
		t.Fatalf("stale snapshot aggregate: %d", got)
	}
}

func TestQueryWherePredicate(t *testing.T) {
	fx := newFixture(t, DefaultConfig(), 5, nil)
	fx.cluster.RunUntil(10 * time.Millisecond)
	rows, err := fx.sys.QueryWhere("Account", QueryLive, func(r Row) bool {
		return r.Key > acct(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filtered rows: %d", len(rows))
	}
}

func TestQueryUnknownClass(t *testing.T) {
	fx := newFixture(t, DefaultConfig(), 1, nil)
	if _, err := fx.sys.Query("Ghost", QueryLive); err == nil {
		t.Fatal("unknown class must fail")
	}
}

func TestQuerySnapshotWithoutSnapshotFails(t *testing.T) {
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.New(1)
	sys := New(cluster, prog, DefaultConfig()).Single()
	// No CheckpointPreloadedState, no periodic snapshots: snapshot queries
	// must report that no consistent cut exists yet.
	if _, err := sys.Query("Account", QuerySnapshot); err == nil {
		t.Fatal("expected no-snapshot error")
	}
}

func TestQueryRowsAreCopies(t *testing.T) {
	fx := newFixture(t, DefaultConfig(), 1, nil)
	fx.cluster.RunUntil(10 * time.Millisecond)
	rows, err := fx.sys.Query("Account", QueryLive)
	if err != nil {
		t.Fatal(err)
	}
	rows[0].State["balance"] = interp.IntV(9999) // returned map is a copy
	if got := balance(t, fx.dep, acct(0)); got != 100 {
		t.Fatalf("query mutated live state: %d", got)
	}
}

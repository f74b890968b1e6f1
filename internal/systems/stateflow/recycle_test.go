package stateflow

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// recycleConfig snapshots every other batch of the durable fixture, keeping
// retain snapshots.
func recycleConfig(retain int) Config {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.EpochInterval = 10 * time.Millisecond
	cfg.SnapshotRetain = retain
	return cfg
}

// stepUntil advances the fixture's cluster in small steps until cond holds.
func (f *durableFixture) stepUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 500_000 {
			t.Fatalf("never reached: %s", what)
		}
		f.cluster.RunUntil(f.cluster.Now() + 5*time.Microsecond)
	}
}

// TestSnapshotRetainBelowTwoRecyclesNothing: with SnapshotRetain 0 (keep
// all) or 1 (retire at the seal, when no snapshot awaits the retired
// images) every image is written into fresh storage, and the store holds
// the retained set only.
func TestSnapshotRetainBelowTwoRecyclesNothing(t *testing.T) {
	for _, retain := range []int{0, 1} {
		f := newDurableFixture(t, 42, recycleConfig(retain), 24, 4)
		snaps := f.sys.Snapshots
		seen := map[*byte]int64{} // image storage → the snapshot holding it (and keeping it alive)
		f.cluster.Start()
		for f.cluster.Now() < 400*time.Millisecond {
			f.cluster.RunUntil(f.cluster.Now() + 100*time.Microsecond)
			latest, ok := snaps.Latest()
			if !ok {
				continue
			}
			for _, w := range f.sys.workerIDs {
				img, ok := snaps.Read(latest.ID, w)
				if !ok || cap(img) == 0 {
					continue
				}
				p := &img[:1][0]
				if id, dup := seen[p]; dup && id != latest.ID {
					t.Fatalf("SnapshotRetain %d: %s's image in snapshot %d reuses snapshot %d's storage", retain, w, latest.ID, id)
				}
				seen[p] = latest.ID
			}
		}
		f.cluster.RunUntil(20 * time.Second)
		f.assertExactlyOnceEffective(t, 24)
		taken, held := f.sys.Snapshots.Count(), f.sys.Snapshots.Retained()
		if taken < 5 {
			t.Fatalf("SnapshotRetain %d: only %d snapshots taken", retain, taken)
		}
		if want := map[int]int{0: taken, 1: 1}[retain]; held != want {
			t.Fatalf("SnapshotRetain %d: %d of %d snapshots held, want %d", retain, held, taken, want)
		}
	}
}

// TestSnapshotRetainTwoEncodesIntoTheRetiredImages: with SnapshotRetain 2
// the oldest snapshot retires when the next begins, every worker encodes
// its new image into the storage of its retired one, and the store never
// carries more than the retained set plus the snapshot being written.
func TestSnapshotRetainTwoEncodesIntoTheRetiredImages(t *testing.T) {
	f := newDurableFixture(t, 42, recycleConfig(2), 24, 4)
	snaps, workers := f.sys.Snapshots, f.sys.workerIDs
	first := map[int64]map[string]*byte{} // snapshot id → worker → image storage
	f.cluster.Start()
	reused, checked := 0, 0
	for f.cluster.Now() < 400*time.Millisecond {
		f.cluster.RunUntil(f.cluster.Now() + 100*time.Microsecond)
		latest, ok := snaps.Latest()
		if !ok || first[latest.ID] != nil {
			continue
		}
		first[latest.ID] = map[string]*byte{}
		for _, w := range workers {
			if img, ok := snaps.Read(latest.ID, w); ok && cap(img) > 0 {
				first[latest.ID][w] = &img[:1][0]
			}
		}
		if held := snaps.Retained(); held > 2 {
			t.Fatalf("snapshot %d complete with %d snapshots held, want at most 2", latest.ID, held)
		}
		if old := first[latest.ID-2]; old != nil {
			for w, p := range first[latest.ID] {
				checked++
				if old[w] == p {
					reused++
				}
			}
		}
	}
	f.cluster.RunUntil(20 * time.Second)
	f.assertExactlyOnceEffective(t, 24)
	t.Logf("%d of %d worker images written into their retired image's storage", reused, checked)
	if checked == 0 || reused < checked*3/4 {
		t.Fatalf("%d of %d worker images were written into their retired image's storage", reused, checked)
	}
}

// TestWorkerCrashBeforeItsImageRestoresThePreviousCut: with SnapshotRetain
// 2 the snapshot that begins retires the oldest one, so while it is being
// written only the previous complete snapshot is a restore point. A worker
// that crashes after the snapshot began and before it wrote its image
// tears the snapshot; recovery restores exactly the previous cut, and
// exactly-once holds.
func TestWorkerCrashBeforeItsImageRestoresThePreviousCut(t *testing.T) {
	const n = 24
	f := newDurableFixture(t, 42, recycleConfig(2), n, 4)
	c := f.sys.Coordinator()
	victim := f.sys.workers[f.sys.OwnerIndex(interp.EntityRef{Class: "Account", Key: acct(0)})].id
	f.cluster.Start()
	var sealed int64
	f.stepUntil(t, "a snapshot begun over two sealed periodic ones, its image unwritten on the victim", func() bool {
		if st := c.commit; st == nil || st.phase != phaseSnapshot || c.sealed < 3 {
			return false
		}
		_, written := f.sys.Snapshots.Read(c.snapshotID, victim)
		sealed = c.sealed
		return !written
	})
	if _, ok := f.sys.Snapshots.Get(sealed - 1); ok {
		t.Fatalf("snapshot %d, older than the restore point %d, was not retired when %d began", sealed-1, sealed, c.snapshotID)
	}
	torn := c.snapshotID
	now := f.cluster.Now()
	f.cluster.ScheduleCrash(victim, now, now+5*time.Millisecond)
	f.cluster.RunUntil(20 * time.Second)

	if len(c.RestoredSnapshots) == 0 || c.RestoredSnapshots[0] != sealed {
		t.Fatalf("restored %v after a crash tore snapshot %d, want the sealed %d first", c.RestoredSnapshots, torn, sealed)
	}
	for _, w := range f.sys.workers {
		if w.CorruptSnapshotImages != 0 {
			t.Fatalf("%s restored a damaged image", w.id)
		}
	}
	f.assertExactlyOnceEffective(t, n)
}

// TestRecycleKeepsTheSealedRestorePoint: a coordinator that crashes after a
// snapshot's images are complete but before it sealed the snapshot leaves a
// complete snapshot newer than the restore point. The next snapshot to
// begin must not retire the restore point in its favour: a worker crash
// before that snapshot seals still restores the sealed cut, not an empty
// store.
func TestRecycleKeepsTheSealedRestorePoint(t *testing.T) {
	const n = 24
	f := newDurableFixture(t, 42, recycleConfig(2), n, 4)
	c := f.sys.Coordinator()
	f.cluster.Start()
	f.stepUntil(t, "a periodic snapshot complete in the store and not yet sealed", func() bool {
		latest, ok := f.sys.Snapshots.Latest()
		return ok && c.sealed >= 2 && latest.ID == c.snapshotID && c.sealed < c.snapshotID
	})
	sealed, unsealed := c.sealed, c.snapshotID
	now := f.cluster.Now()
	f.cluster.ScheduleCrash(f.sys.coordID, now, now+10*time.Millisecond)
	f.stepUntil(t, "the rebooted coordinator beginning its next snapshot", func() bool {
		return c.Restarts == 1 && f.sys.Snapshots.Count() > int(unsealed) && c.sealed == sealed
	})
	if _, ok := f.sys.Snapshots.Get(sealed); !ok {
		t.Fatalf("snapshot %d began and retired the restore point %d in favour of the unsealed %d",
			c.snapshotID, sealed, unsealed)
	}
	now = f.cluster.Now()
	f.cluster.ScheduleCrash(f.sys.workers[0].id, now, now+5*time.Millisecond)
	f.cluster.RunUntil(20 * time.Second)

	if want := []int64{sealed, sealed}; len(c.RestoredSnapshots) < 2 || !slices.Equal(c.RestoredSnapshots[:2], want) {
		t.Fatalf("restored %v, want the sealed %d by both recoveries", c.RestoredSnapshots, sealed)
	}
	f.assertExactlyOnceEffective(t, n)
}

// TestReleasedEpochSlotIsReset: a released slot keeps its backing stores
// and its member records but nothing of its epoch — no chain or round
// survives the reset that reuses it, though its plan, progress, level counts
// and abort lists keep their storage — and every record the next batch
// reuses is zeroed: no field of a released member survives into it.
func TestReleasedEpochSlotIsReset(t *testing.T) {
	st := &epochState{}
	st.reset(3)
	for tid := aria.TID(10); tid < 14; tid++ {
		m := st.add(tid, pendingReq{pos: int64(tid), replyTo: "client", retries: 2, arrivedAt: time.Second,
			req: sysapi.Request{Req: "old", Target: interp.EntityRef{Class: "Account", Key: "a"}, Method: "m"}})
		m.first.txnEvent = txnEvent{TID: tid, Epoch: 3, Ev: &m.first.ev, Sets: &rwSets{}, Value: interp.IntV(1), Err: "e", ctx: &m.first.chain}
		m.finished, m.value, m.err, m.sets, m.aborted, m.rescued = true, interp.IntV(2), "err", &rwSets{rw: &aria.RWSet{}}, true, true
	}
	st.close()
	if rescued := st.scheduleFallback(func(int) string { return "Account" }); rescued != 4 || !st.scheduled() {
		t.Fatalf("scenario: %d members rescued", rescued)
	}
	st.decision()
	st.round, st.levelLeft, st.binding = 1, []int32{1}, true
	st.decision()
	txns, order, members, left := st.txns, st.order, st.plan.Members, st.levelLeft
	aborts := st.aborts

	st.reset(4)
	if st.epoch != 4 || st.phase != phaseOpen || len(st.txns) != 0 || len(st.order) != 0 ||
		st.scheduled() || st.plan.Depth != 0 || st.chain.Plan != nil || len(st.levelLeft) != 0 ||
		len(st.aborts[0]) != 0 || len(st.aborts[1]) != 0 || st.round != 0 || st.binding || st.unfinished != 0 {
		t.Fatalf("reset left epoch state behind: %+v", st)
	}
	if &st.txns[:1][0] != &txns[0] || &st.order[:1][0] != &order[0] || &st.plan.Members[:1][0] != &members[0] ||
		&st.levelLeft[:1][0] != &left[0] || &st.aborts[0][:1][0] != &aborts[0][0] || &st.aborts[1][:1][0] != &aborts[1][0] {
		t.Fatal("reset dropped the slot's backing stores")
	}
	released := slices.Clone(txns[:cap(txns)][:4])
	fresh := &epochState{}
	for i, tid := range []aria.TID{20, 21} {
		p := pendingReq{pos: int64(tid), req: sysapi.Request{Req: "new", Target: interp.EntityRef{Class: "Account", Key: "b"}}}
		got := st.add(tid, p)
		if got != released[i] {
			t.Fatalf("member %d of the next batch is a new record, not the released one at its position", i)
		}
		if want := fresh.add(tid, p); !reflect.DeepEqual(*got, *want) {
			t.Fatalf("the reused record kept a field of the released member:\n got %+v\nwant %+v", *got, *want)
		}
	}
	if st.first != 20 || st.txn(20) == nil || st.txn(10) != nil || len(st.txns) != 2 {
		t.Fatal("the reused slot does not index its own batch")
	}
}

// TestSettledWorkerEpochIsReused: an epoch's final decide retires its
// execution state to the worker's free list, emptied, and the next epoch to
// reach the worker takes it; the epoch's txnWorks go to the worker's pool,
// zeroed — a pooled one keeps nothing alive — and every one a later
// transaction reuses holds only what opening its workspace sets: no field of
// the settled transaction's workspace or shipped node survives into it.
func TestSettledWorkerEpochIsReused(t *testing.T) {
	f := newDurableFixture(t, 42, recycleConfig(0), 24, 4)
	w := f.sys.workers[0]
	ep := w.liveEpoch(1, 0)
	tw := w.workspace(ep, 7)
	ref := interp.EntityRef{Class: "Account", Key: acct(0)}
	if err := tw.ws.Create(ref, func(st interp.State) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tw.sets = rwSets{rw: &tw.ws.RW, next: &rwSets{}}
	plan := &aria.ChainPlan{}
	aria.PlanChain(plan, []aria.TID{7, 8}, func(_ int, buf []interp.EntityRef) []interp.EntityRef { return append(buf, ref) })
	ep.plan = plan
	ch := ep.progress()
	ch.parked = append(ch.parked, parkedEvent{msgTxnEvent: msgTxnEvent{&txnEvent{TID: 8}}}, parkedEvent{})
	parked := &ch.parked[0]
	w.retire(1)
	if _, live := w.epochs[1]; live || len(w.free) != 1 || w.free[0] != ep {
		t.Fatalf("retire left epochs %v, free list %v", w.epochs, w.free)
	}
	if len(ep.workspaces) != 0 || ep.plan != nil || ep.chain != nil || ep.round != 0 {
		t.Fatalf("a retired epoch kept its state: %+v", ep)
	}
	if ep.kept.Plan != nil || len(ep.kept.parked) != 0 || *parked != (parkedEvent{}) || &ep.kept.parked[:1][0] != parked {
		t.Fatal("a retired epoch's chain kept its plan or a parked event, or dropped its storage")
	}
	if len(w.works) != 1 || w.works[0] != tw {
		t.Fatalf("retire did not pool the epoch's txnWork: pool %v", w.works)
	}
	if !reflect.DeepEqual(*tw, txnWork{}) {
		t.Fatalf("the pooled txnWork keeps the settled transaction's fields alive: %+v", *tw)
	}
	if got := w.liveEpoch(2, 1); got != ep || got.round != 1 || len(w.free) != 0 {
		t.Fatal("the next epoch did not reuse the retired one")
	}
	got := w.workspace(ep, 9)
	if got != tw || len(w.works) != 0 {
		t.Fatal("the next transaction's workspace is a new txnWork, not the pooled one")
	}
	var want txnWork
	want.ws.Open(9, w.committed)
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("the reused txnWork kept a field of the settled transaction:\n got %+v\nwant %+v", *got, want)
	}
}

// TestEpochStateIsRecycledAcrossEpochs: a run of many epochs with no
// recovery cycles through a handful of coordinator slots and worker epochs
// — the two pipeline slots, which take turns being the spare the next epoch
// opens in (newCoordinator makes the first, the first pipelined openEpoch
// the second), and per worker the epochs in flight — instead of one of each
// per epoch. The second leg runs two shards with global transfers: a
// parked shard's epoch promotes with no successor, and its release must
// keep the spare it finds waiting, so once the first epochs have passed
// each shard still cycles through two slots.
func TestEpochStateIsRecycledAcrossEpochs(t *testing.T) {
	// recycled runs the cluster to 300 ms and counts the distinct slots of
	// each shard's coordinator from warm on, and the worker epochs.
	recycled := func(t *testing.T, cluster *sim.Cluster, shards []*System, warm time.Duration) {
		slots, eps := make([]map[*epochState]bool, len(shards)), map[*workerEpoch]bool{}
		for i := range slots {
			slots[i] = map[*epochState]bool{}
		}
		workers := 0
		for cluster.Now() < 300*time.Millisecond {
			cluster.RunUntil(cluster.Now() + 50*time.Microsecond)
			for i, sh := range shards {
				for _, st := range []*epochState{sh.coord.exec, sh.coord.commit} {
					if st != nil && cluster.Now() >= warm {
						slots[i][st] = true
					}
				}
				workers = len(sh.workers)
				for _, w := range sh.workers {
					for _, ep := range w.epochs {
						eps[ep] = true
					}
				}
			}
		}
		for i, sh := range shards {
			c := sh.coord
			if c.EpochsClosed < 20 || c.Recoveries != 0 {
				t.Fatalf("scenario: shard %d closed %d epochs, %d recoveries", i, c.EpochsClosed, c.Recoveries)
			}
			if len(slots[i]) > 2 {
				t.Errorf("shard %d: %d epochs used %d coordinator slots: epochs are allocating their state instead of reusing it",
					i, c.EpochsClosed, len(slots[i]))
			} else {
				t.Logf("shard %d: %d epochs used %d coordinator slots", i, c.EpochsClosed, len(slots[i]))
			}
		}
		if len(eps) > 2*workers*len(shards) {
			t.Errorf("%d worker epochs for %d workers: they are allocated instead of reused", len(eps), workers*len(shards))
		}
	}
	t.Run("one shard", func(t *testing.T) {
		f := newDurableFixture(t, 42, recycleConfig(0), 48, 4)
		f.cluster.Start()
		recycled(t, f.cluster, []*System{f.sys}, 0)
	})
	t.Run("two shards with global transfers", func(t *testing.T) {
		// Every 5 ms a transfer within each shard, and every third time one
		// across them as well.
		probe := shardedProbe(t, 2)
		home := [2][]string{}
		for i := range 8 {
			sh := probe.ShardOf(interp.EntityRef{Class: "Account", Key: acct(i)})
			home[sh] = append(home[sh], acct(i))
		}
		if len(home[0]) < 2 || len(home[1]) < 2 {
			t.Fatalf("scenario: accounts per shard %v", home)
		}
		var script []sysapi.Scheduled
		for i := range 48 {
			at := time.Duration(i+1) * 5 * time.Millisecond
			for sh, accts := range home {
				script = append(script, sysapi.Scheduled{At: at,
					Req: transferReq(fmt.Sprintf("t%d.%d", i, sh), accts[0], accts[1], 1)})
			}
			if i%3 == 0 {
				script = append(script, sysapi.Scheduled{At: at,
					Req: transferReq(fmt.Sprintf("g%d", i), home[0][0], home[1][0], 1)})
			}
		}
		fx := newShardedFixture(t, recycleConfig(0), 2, 8, script)
		recycled(t, fx.cluster, fx.sys.Shards(), 50*time.Millisecond)
		if g := fx.sys.Sequencer().GlobalTxns; g < 10 {
			t.Fatalf("scenario: %d global transactions", g)
		}
	})
}

// TestRecycleStaleFinishAfterReuse: a copy of a finish can arrive after its
// body's record was reused by a later request, and then reads that request's
// stamp. Epoch 1 holds a transfer from acct(0) into acct(1), owned by two
// workers, a simple update of acct(1) and a fast read; the update
// conflict-aborts and the chain re-executes it (as in
// TestFinishTravelsInItsEventsBody), so the slot's records also carry the
// epoch through its chain. The transfer's and the update's round-0 finishes
// and the read's answer come back in their records' own bodies: the
// transfer's crossed workers in it, its context inside. Epoch 2 takes one
// update; epoch 3 reuses epoch 1's slot — the transfer's record for another
// two-worker transfer, the update's for an update — and a later read reuses
// the first read's record. Each of the three kept bodies is delivered to the
// coordinator again twice while its new occupant holds it: once the moment
// the coordinator dispatches or forwards the occupant in it — the body is the
// occupant's event, and the copy must be dropped — and once the moment the
// worker answers in it, ahead of that answer — the copy is the occupant's own
// final answer. The transfer's body is delivered a third time when the
// occupant's payer forwards it, the occupant's context in it, to the payee:
// the body is still the occupant's event. Every request is answered exactly
// once, with its own value.
func TestRecycleStaleFinishAfterReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	update := func(id string, key int) sysapi.Request {
		return sysapi.Request{Req: id, Target: interp.EntityRef{Class: "Account", Key: acct(key)},
			Method: "update", Args: []interp.Value{interp.IntV(1)}, Kind: "update"}
	}
	fx := newFixture(t, cfg, 4, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t", acct(0), acct(1), 5)},
		{At: time.Millisecond, Req: update("u", 1)},
		{At: time.Millisecond, Req: readReq("r", acct(2))},
		{At: 20 * time.Millisecond, Req: update("a", 2)},
		{At: 40 * time.Millisecond, Req: update("b1", 2)},
		{At: 40 * time.Millisecond, Req: transferReq("b2", acct(0), acct(3), 4)},
		{At: 40 * time.Millisecond, Req: readReq("r2", acct(1))},
	})
	c := fx.sys.coord
	for _, pair := range [][2]int{{0, 1}, {0, 3}} {
		if owner := func(i int) string { return fx.sys.ownerOf(interp.EntityRef{Class: "Account", Key: acct(i)}) }; owner(pair[0]) == owner(pair[1]) {
			t.Fatalf("scenario: %s and %s share their owner, so the transfer between them does not hop", acct(pair[0]), acct(pair[1]))
		}
	}

	// kept is the body each of "t", "u" (round 0) and "r" answered in, and
	// what happened to it after its record was reused.
	type reuse struct {
		occupant     string
		asEvent      bool // a copy was delivered while the body was the occupant's event
		asHop        bool // a copy was delivered while a worker forwarded the body
		asAnswer     bool // a copy was delivered ahead of the occupant's answer
		answeredFrom string
		chain        *core.Context // the storage of the record's chain (nil: a read's)
	}
	kept := map[*txnEvent]*reuse{}
	owner := map[string]*txnEvent{} // "t", "u" and "r" → the body kept for it
	injecting := false
	redeliver := func(from string, body *txnEvent) {
		injecting = true
		fx.cluster.Inject(fx.cluster.Now(), from, c.sys.coordID, msgTxnFinished{body})
		injecting = false
	}
	answers := map[string][]string{} // request → every response value sent to the client
	fx.cluster.SetTap(func(from, to string, _, _ time.Duration, msg sim.Message) {
		if injecting {
			return
		}
		switch m := msg.(type) {
		case msgTxnEvent:
			ru := kept[m.txnEvent]
			switch {
			case ru == nil:
			case from == c.sys.coordID && ru.occupant == "":
				ru.occupant, ru.asEvent = m.Ev.Req, true
				redeliver(to, m.txnEvent)
			case from != c.sys.coordID && ru.occupant != "" && !ru.asHop:
				if m.Ev.Ctx != ru.chain {
					t.Errorf("%s forwarded %s's event with context %p, not the one in its body", from, ru.occupant, m.Ev.Ctx)
				}
				ru.asHop = true
				redeliver(from, m.txnEvent)
			}
		case msgTxnFinished:
			if ru := kept[m.txnEvent]; ru != nil {
				if ru.occupant != "" && !ru.asAnswer {
					ru.asAnswer, ru.answeredFrom = true, from
					redeliver(from, m.txnEvent)
				}
				return
			}
			var id string
			var inline *txnEvent
			var chain *core.Context
			if m.Round == readRound {
				if r := c.reads[m.TID]; r != nil {
					id, inline = r.first.ev.Req, &r.first
				}
			} else if st := c.stageFor(m.Epoch); st != nil && m.Round == 0 {
				if rec := st.txn(m.TID); rec != nil {
					id, inline, chain = rec.req.Req, &rec.first.txnEvent, &rec.first.chain
				}
			}
			if (id == "t" || id == "u" || id == "r") && owner[id] == nil {
				if m.txnEvent != inline {
					t.Errorf("%s answered in a body of its own, not its record's", id)
				}
				owner[id], kept[m.txnEvent] = m.txnEvent, &reuse{chain: chain}
			}
		case sysapi.MsgResponse:
			answers[m.Response.Req] = append(answers[m.Response.Req], m.Response.Value.Repr())
		}
	})
	fx.cluster.RunUntil(5 * time.Second)

	want := map[string]string{"t": "True", "u": "106", "r": "100", "a": "101", "b1": "102", "b2": "True", "r2": "106"}
	for id, v := range want {
		if got := answers[id]; len(got) != 1 || got[0] != v {
			t.Errorf("%s answered %v, want exactly once with %s", id, got, v)
		}
	}
	for _, id := range []string{"t", "u", "r"} {
		if ru := kept[owner[id]]; ru != nil && ru.occupant != "" {
			t.Logf("%s's body was reused by %s, answered from %s", id, ru.occupant, ru.answeredFrom)
		}
	}
	if fx.client.Done != len(want) {
		t.Fatalf("responses: %d/%d", fx.client.Done, len(want))
	}
	if co := fx.sys.Coordinator(); co.FallbackChains != 1 || co.FastReads != 2 {
		t.Fatalf("chains %d, fast reads %d: want epoch 1 chained and two fast reads", co.FallbackChains, co.FastReads)
	}
	for id, occupant := range map[string]string{"t": "b2", "u": "b1", "r": "r2"} {
		ru := kept[owner[id]]
		if ru == nil || ru.occupant != occupant {
			t.Fatalf("the record %s answered in was not reused by %s: %+v", id, occupant, ru)
		}
		if !ru.asEvent || !ru.asAnswer || ru.asHop != (id == "t") {
			t.Fatalf("%s's body, reused by %s: copy delivered as its event %v, as its forwarded hop %v, ahead of its answer %v",
				id, ru.occupant, ru.asEvent, ru.asHop, ru.asAnswer)
		}
	}
	if st, _ := fx.dep.EntityState("Account", acct(3)); st["balance"].I != 104 {
		t.Fatalf("%s holds %d after b2's transfer of 4, want 104", acct(3), st["balance"].I)
	}
}

// readsAndTransfers is a durable script of n transfers around a cycle of
// `accounts` accounts, each sent with a fast read of the transfer's payer.
func readsAndTransfers(n, accounts int) []sysapi.Scheduled {
	var script []sysapi.Scheduled
	for i := 0; i < n; i++ {
		at := time.Duration(i+1) * 5 * time.Millisecond
		script = append(script,
			sysapi.Scheduled{At: at, Req: transferReq(fmt.Sprintf("t%d", i), acct(i%accounts), acct((i+1)%accounts), 1)},
			sysapi.Scheduled{At: at, Req: readReq(fmt.Sprintf("r%d", i), acct(i%accounts))})
	}
	return script
}

// TestRecycleRecoveryPoolsNothing: records a recovery touched are never
// reused. A worker crashes while the exec epoch has a member unfinished and a
// fast read is unanswered, both bound for it, and the run goes on well past
// the records' reuse. The members of the epochs Recover discards, the
// txnWorks onRecover wipes and the reads holdUnanswered takes back may have
// events still in flight or buffered, so none of them may reach a pool or
// serve a later request. Among them are transfers whose round-0 body a worker
// had forwarded to the payee's owner before the recovery, carrying the
// chain's context in the member's record (&t.first.ctx): such a body is never
// dispatched again, so no later request's chain is built where the stale hop
// may still execute. No (TID, epoch, round) executes twice, and exactly-once
// and conservation hold.
func TestRecycleRecoveryPoolsNothing(t *testing.T) {
	const n, accounts = 120, 4 // sent until 600 ms, well past the recovery
	f := newScriptedDurableFixture(t, 42, recycleConfig(0), readsAndTransfers(n, accounts), accounts)
	c := f.sys.Coordinator()
	executed := map[[3]int64]int{} // (TID, epoch, round) → root responses its executions produced
	decided := map[int64]bool{}    // epochs a decide was sent for
	// forwarded holds the round-0 bodies a worker forwarded before the
	// recovery, by the member record whose inline body each is.
	forwarded := map[*txnState]*txnEvent{}
	crossed := map[*txnEvent]bool{} // those forwarded for a member Recover discarded unfinished
	f.cluster.SetTap(func(from, to string, _, _ time.Duration, msg sim.Message) {
		switch m := msg.(type) {
		case msgTxnEvent:
			if crossed[m.txnEvent] && from == c.sys.coordID {
				t.Fatalf("the coordinator dispatched %s in a body whose hop was in flight across the recovery", m.Ev.Req)
			}
			if from == c.sys.coordID || m.Round != 0 || c.Recoveries > 0 {
				return
			}
			for _, st := range []*epochState{c.exec, c.commit} {
				if st == nil {
					continue
				}
				if rec := st.txn(m.TID); rec != nil && m.txnEvent == &rec.first.txnEvent {
					if m.Ev.Ctx != &rec.first.chain {
						t.Fatalf("%s forwarded %s with context %p, not the one in its record's body", from, m.Ev.Req, m.Ev.Ctx)
					}
					forwarded[rec] = m.txnEvent
				}
			}
		case msgTxnFinished:
			if m.Round != readRound {
				executed[[3]int64{int64(m.TID), m.Epoch, int64(m.Round)}]++
			}
		case *msgDecide:
			decided[m.Epoch] = true
		}
	})
	f.cluster.Start()
	var victim string
	f.stepUntil(t, "an unfinished exec member and an unanswered read on one worker, nothing committing", func() bool {
		if c.EpochsClosed < 4 || c.commit != nil || c.exec == nil || c.exec.unfinished == 0 {
			return false
		}
		for _, r := range c.reads {
			owner := f.sys.ownerOf(r.first.ev.Target)
			for _, m := range c.exec.txns {
				if !m.finished && f.sys.ownerOf(m.req.Target) == owner {
					victim = owner
					return true
				}
			}
		}
		return false
	})
	now := f.cluster.Now()
	f.cluster.ScheduleCrash(victim, now, now+5*time.Millisecond)

	// What the recovery touches: the slots' members from the crash until
	// Recover drops them (no slot can be released meanwhile: the victim's
	// answers are missing), the reads Recover takes back, and the txnWorks of
	// every epoch no decide has reached that a worker holds when onRecover
	// replaces its epoch table (only the decides and a chain's releases give
	// a txnWork back).
	discarded := map[*txnState]bool{}
	reforwarded := map[*fastRead]string{} // → the request it serves
	wiped := map[*txnWork]bool{}
	undecided := func(w *Worker) map[*txnWork]int64 {
		out := map[*txnWork]int64{}
		for e, ep := range w.epochs {
			for _, tw := range ep.workspaces {
				if !decided[e] {
					out[tw] = e
				}
			}
		}
		return out
	}
	closed := c.EpochsClosed
	// Who each live record serves, and how often one was seen serving a
	// second request after the recovery.
	servesMember, servesRead, servesWork := map[*txnState]string{}, map[*fastRead]string{}, map[*txnWork]aria.TID{}
	reusedMembers, reusedReads, reusedWorks := 0, 0, 0
	see := func() {
		for _, st := range []*epochState{c.exec, c.commit} {
			if st == nil {
				continue
			}
			for _, m := range st.txns {
				if id, ok := servesMember[m]; ok && id != m.req.Req {
					reusedMembers++
				}
				servesMember[m] = m.req.Req
			}
		}
		for _, r := range c.reads {
			if id, ok := servesRead[r]; ok && id != r.first.ev.Req {
				reusedReads++
			}
			servesRead[r] = r.first.ev.Req
		}
		for _, w := range f.sys.workers {
			for _, ep := range w.epochs {
				for tid, tw := range ep.workspaces {
					if old, ok := servesWork[tw]; ok && old != tid {
						reusedWorks++
					}
					servesWork[tw] = tid
				}
			}
		}
	}
	check := func() {
		for _, st := range []*epochState{c.exec, c.commit, c.spare} {
			if st != nil && slices.ContainsFunc(st.txns[:cap(st.txns)], func(m *txnState) bool { return discarded[m] }) {
				t.Fatalf("epoch %d's slot holds a member record of an epoch Recover discarded", st.epoch)
			}
		}
		for _, r := range c.freeReads {
			if _, ok := reforwarded[r]; ok {
				t.Fatalf("read %s, taken back by the recovery, reached the free list", r.first.ev.Req)
			}
		}
		for _, r := range append(slices.Collect(maps.Values(c.reads)), c.held...) {
			if id, ok := reforwarded[r]; ok && r.first.ev.Req != id {
				t.Fatalf("read %s's record, taken back by the recovery, serves %s", id, r.first.ev.Req)
			}
		}
		for _, w := range f.sys.workers {
			if slices.ContainsFunc(w.works, func(tw *txnWork) bool { return wiped[tw] }) {
				t.Fatalf("%s pooled a txnWork onRecover wiped", w.id)
			}
			for e, ep := range w.epochs {
				for _, tw := range ep.workspaces {
					if wiped[tw] {
						t.Fatalf("%s reused a txnWork onRecover wiped, in epoch %d", w.id, e)
					}
				}
			}
		}
	}
	for end := now + time.Second; f.cluster.Now() < end; {
		before := c.Recoveries
		tables := map[*Worker]map[int64]*workerEpoch{}
		held := map[*Worker]map[*txnWork]int64{}
		for _, w := range f.sys.workers {
			tables[w], held[w] = w.epochs, undecided(w)
		}
		f.cluster.RunUntil(f.cluster.Now() + 20*time.Microsecond)
		if before == 0 {
			for _, st := range []*epochState{c.exec, c.commit} {
				if st != nil {
					for _, m := range st.txns {
						discarded[m] = true
					}
				}
			}
		}
		if before == 0 && c.Recoveries > 0 {
			if c.EpochsClosed != closed {
				t.Fatalf("scenario: %d epochs closed between the crash and the recovery", c.EpochsClosed-closed)
			}
			for _, r := range c.held {
				if r.seq != 0 {
					reforwarded[r] = r.first.ev.Req
				}
			}
			for rec, body := range forwarded {
				if discarded[rec] && !rec.finished {
					crossed[body] = true
				}
			}
		}
		for _, w := range f.sys.workers {
			if reflect.ValueOf(w.epochs).UnsafePointer() != reflect.ValueOf(tables[w]).UnsafePointer() {
				for tw, e := range held[w] {
					if !decided[e] {
						wiped[tw] = true
					}
				}
			}
		}
		if c.Recoveries > 0 {
			check()
			see()
		}
	}
	if c.Recoveries != 1 || len(discarded) == 0 || len(reforwarded) == 0 || len(wiped) == 0 || len(crossed) == 0 {
		t.Fatalf("scenario: %d recoveries touched %d members (%d with a hop in flight), %d reads, %d txnWorks; want one recovery touching each kind",
			c.Recoveries, len(discarded), len(crossed), len(reforwarded), len(wiped))
	}
	if reusedMembers == 0 || reusedReads == 0 || reusedWorks == 0 {
		t.Fatalf("scenario: after the recovery %d member records, %d read records and %d txnWorks were reused; want some of each",
			reusedMembers, reusedReads, reusedWorks)
	}
	f.cluster.RunUntil(20 * time.Second)
	check()
	t.Logf("crash of %s: recovery discarded %d members (%d with a hop in flight), took back %d reads, wiped %d txnWorks",
		victim, len(discarded), len(crossed), len(reforwarded), len(wiped))
	for k, runs := range executed {
		if runs > 1 {
			t.Errorf("TID %d of epoch %d executed round %d %d times", k[0], k[1], k[2], runs)
		}
	}
	f.assertExactlyOnceEffective(t, 2*n)
	if c.FastReads < n {
		t.Fatalf("%d fast reads answered, want %d", c.FastReads, n)
	}
}

// TestRecyclePoolsAreBounded (ROADMAP D(5)): a pool only takes back records
// that were live, and a record is made only when its pool is empty, so after
// a burst and then idle every pool holds at most the peak number of records
// live at once — per coordinator slot, its largest batch; for the read free
// list, the most reads in flight; per worker, the most txnWorks in its open
// epochs. The peaks are read at every send, which follows every step that
// makes a record live, and the pools must have the records back. The burst
// is contended, so its batches chain: a slot's plan grows only for a chain
// larger than any it planned before, and after idle no worker epoch keeps a
// chain, a parked event or more parking room than the largest chain it ran,
// and no worker keeps a buffered event.
func TestRecyclePoolsAreBounded(t *testing.T) {
	const accounts = 16
	var script []sysapi.Scheduled
	for _, burst := range []struct {
		at time.Duration
		n  int
	}{{5 * time.Millisecond, 64}, {200 * time.Millisecond, 16}} {
		for i := range burst.n {
			script = append(script,
				sysapi.Scheduled{At: burst.at, Req: transferReq(fmt.Sprintf("t%d.%d", burst.at/time.Millisecond, i),
					acct(i%accounts), acct((i+1)%accounts), 1)},
				sysapi.Scheduled{At: burst.at, Req: readReq(fmt.Sprintf("r%d.%d", burst.at/time.Millisecond, i), acct(i%accounts))})
		}
	}
	f := newScriptedDurableFixture(t, 42, recycleConfig(0), script, accounts)
	c := f.sys.Coordinator()
	slotPeak := map[*epochState]int{}
	readPeak, workPeak := 0, map[*Worker]int{}
	// planPeak is a slot's largest chain so far, and the plan's capacities
	// right after it was planned.
	type planSize struct{ members, refs, capMembers, capRefs int }
	planPeak := map[*epochState]planSize{}
	chainPeak := 0 // the most members of any chain
	observe := func() {
		for _, st := range []*epochState{c.exec, c.commit} {
			if st != nil {
				slotPeak[st] = max(slotPeak[st], len(st.txns))
			}
			if st == nil || !st.scheduled() {
				continue
			}
			p, now := planPeak[st], planSize{len(st.plan.Members), len(st.plan.Refs), cap(st.plan.Members), cap(st.plan.Refs)}
			chainPeak = max(chainPeak, now.members)
			switch {
			case now.members > p.members || now.refs > p.refs:
				planPeak[st] = now
			case now.capMembers != p.capMembers || now.capRefs != p.capRefs:
				t.Fatalf("epoch %d's chain of %d members on %d entities regrew its slot's plan (capacities %d, %d), "+
					"which had planned one of %d on %d (%d, %d)", st.epoch, now.members, now.refs, now.capMembers, now.capRefs,
					p.members, p.refs, p.capMembers, p.capRefs)
			}
		}
		readPeak = max(readPeak, len(c.reads)+len(c.held))
		for _, w := range f.sys.workers {
			live := 0
			for _, ep := range w.epochs {
				live += len(ep.workspaces)
			}
			workPeak[w] = max(workPeak[w], live)
		}
	}
	f.cluster.SetTap(func(string, string, time.Duration, time.Duration, sim.Message) { observe() })
	f.cluster.Start()
	for f.cluster.Now() < 2*time.Second {
		f.cluster.RunUntil(f.cluster.Now() + time.Millisecond)
		observe()
	}
	f.assertExactlyOnceEffective(t, len(script))
	if c.Recoveries != 0 || len(c.reads)+len(c.held) != 0 {
		t.Fatalf("scenario: %d recoveries, %d reads live after idle", c.Recoveries, len(c.reads)+len(c.held))
	}

	pooled := 0
	for st, peak := range slotPeak {
		records := 0
		for _, m := range st.txns[:cap(st.txns)] {
			if m != nil {
				records++
			}
		}
		if records > peak {
			t.Errorf("epoch %d's slot holds %d member records, more than the %d of its largest batch", st.epoch, records, peak)
		}
		pooled += records
	}
	if len(c.freeReads) > readPeak {
		t.Errorf("the read free list holds %d records, more than the %d reads ever in flight at once", len(c.freeReads), readPeak)
	}
	if c.FallbackChains == 0 || len(planPeak) == 0 {
		t.Fatalf("scenario: the burst chained %d times", c.FallbackChains)
	}
	works := 0
	for _, w := range f.sys.workers {
		if len(w.epochs) != 0 {
			t.Fatalf("scenario: %s has %d epochs open after idle", w.id, len(w.epochs))
		}
		if len(w.buffered) != 0 || slices.ContainsFunc(w.spare[:cap(w.spare)], func(m msgTxnEvent) bool { return m.txnEvent != nil }) {
			t.Errorf("%s keeps a buffered event after idle", w.id)
		}
		for _, ep := range w.free {
			if ep.plan != nil || ep.chain != nil || ep.kept.Plan != nil {
				t.Errorf("%s keeps a chain in an idle worker epoch", w.id)
			}
			if slices.ContainsFunc(ep.kept.parked[:cap(ep.kept.parked)], func(p parkedEvent) bool { return p.txnEvent != nil }) {
				t.Errorf("%s keeps a parked event in an idle worker epoch", w.id)
			}
			if n := cap(ep.kept.parked); n > 2*chainPeak {
				t.Errorf("%s keeps parking room for %d members in an idle worker epoch; the largest chain had %d", w.id, n, chainPeak)
			}
		}
		if len(w.works) > workPeak[w] {
			t.Errorf("%s pools %d txnWorks, more than the %d it ever held at once", w.id, len(w.works), workPeak[w])
		}
		works += len(w.works)
	}
	t.Logf("after idle: %d member records in %d slots, %d reads (peak %d), %d txnWorks pooled; %d chains, the largest of %d members",
		pooled, len(slotPeak), len(c.freeReads), readPeak, works, c.FallbackChains, chainPeak)
	if pooled == 0 || len(c.freeReads) == 0 || works == 0 {
		t.Fatal("a pool got none of its records back")
	}
}

// TestRecycleHeldReadsAreBounded (ROADMAP D(5)): the reads a recovery holds
// are served and forgotten. A worker crashes under a burst of transfers, and
// the failure detector starts a recovery at about 261 ms. It takes back the
// reads of the 258 ms burst still unanswered, and the 64 reads of the 262 ms
// burst arrive while it runs, so the coordinator holds both (readsHeld). The
// bursts at 100 ms and 400 ms are forwarded at once. Once the run has gone
// idle, every read is answered, nothing is held or in flight, and the read
// free list holds no more records than were ever live at once (held or
// forwarded): a held read's record is made once and recycled once its answer
// is staged, and a record the recovery took back is left to the collector.
func TestRecycleHeldReadsAreBounded(t *testing.T) {
	const accounts = 16
	var script []sysapi.Scheduled
	for i := range 16 {
		script = append(script, sysapi.Scheduled{At: 5 * time.Millisecond,
			Req: transferReq(fmt.Sprintf("t%d", i), acct(i%accounts), acct((i+1)%accounts), 1)})
	}
	for _, burst := range []struct {
		at time.Duration
		n  int
	}{{100 * time.Millisecond, 32}, {258 * time.Millisecond, 32}, {262 * time.Millisecond, 64}, {400 * time.Millisecond, 32}} {
		for i := range burst.n {
			script = append(script, sysapi.Scheduled{At: burst.at,
				Req: readReq(fmt.Sprintf("r%d.%d", burst.at/time.Millisecond, i), acct(i%accounts))})
		}
	}
	f := newScriptedDurableFixture(t, 42, recycleConfig(0), script, accounts)
	c := f.sys.Coordinator()
	// arrivedPeak counts the held reads that were never forwarded: they
	// arrived while the recovery held reads; the others it took back.
	heldPeak, arrivedPeak, livePeak := 0, 0, 0
	observe := func() {
		arrived := 0
		for _, r := range c.held {
			if r.seq == 0 {
				arrived++
			}
		}
		heldPeak, arrivedPeak = max(heldPeak, len(c.held)), max(arrivedPeak, arrived)
		livePeak = max(livePeak, len(c.held)+len(c.reads))
	}
	f.cluster.SetTap(func(string, string, time.Duration, time.Duration, sim.Message) { observe() })
	f.cluster.Start()
	f.cluster.ScheduleCrash(f.sys.workerIDs[0], 6*time.Millisecond, 11*time.Millisecond)
	for f.cluster.Now() < 2*time.Second {
		f.cluster.RunUntil(f.cluster.Now() + time.Millisecond)
		observe()
	}
	f.assertExactlyOnceEffective(t, len(script))
	if c.Recoveries != 1 || arrivedPeak < 64 || heldPeak == arrivedPeak {
		t.Fatalf("scenario: %d recoveries held at most %d reads, %d of them arrivals; want one recovery holding the 64-read burst and reads it took back",
			c.Recoveries, heldPeak, arrivedPeak)
	}
	if c.FastReads < 128 { // a client retry of a held read is a read of its own
		t.Fatalf("%d fast reads answered, want 128", c.FastReads)
	}
	if len(c.held) != 0 || len(c.reads) != 0 || c.readsHeld() {
		t.Fatalf("after idle: %d reads held, %d in flight, reads held %v", len(c.held), len(c.reads), c.readsHeld())
	}
	t.Logf("after idle: %d reads on the free list (peak %d live, %d held)", len(c.freeReads), livePeak, heldPeak)
	if len(c.freeReads) == 0 || len(c.freeReads) > livePeak {
		t.Errorf("the read free list holds %d records, want between 1 and the %d reads ever live at once", len(c.freeReads), livePeak)
	}
}

// TestRecycleStaleDecideAfterReplan: a batch decide shares its slot's chain
// plan with every worker, and the slot replans a later epoch's chain into
// the same storage once it is released. On the serial schedule every epoch
// runs in one slot, so epoch N+1's chain is planned into the storage epoch
// N's decide points at. A kept copy of N's batch decide, delivered to every
// worker while N+1's chain is in flight with an event parked, carries
// N+1's plan under N's epoch: every worker must drop it by its epoch — no
// store, epoch entry, round, plan, workspace or chain progress changes and
// nothing is sent — and the chain must then answer exactly as it does
// without the copy.
func TestRecycleStaleDecideAfterReplan(t *testing.T) {
	type outcome struct {
		responses map[string]sysapi.Response
		serials   map[string]int64
		stores    []string
		stats     CoordinatorStats
	}
	run := func(t *testing.T, deliver bool) outcome {
		cfg := DefaultConfig()
		cfg.EpochInterval = 50 * time.Millisecond
		cfg.DisablePipelining = true
		cfg.TraceCommits = true
		// Groups of three transfers into one payee, 20 ms apart, each group
		// one batch: the first commits and the other two chain, the third
		// parked behind the second at the payee's owner.
		var script []sysapi.Scheduled
		for g := range 6 {
			for i := range 3 {
				script = append(script, sysapi.Scheduled{At: time.Duration(1+20*g) * time.Millisecond,
					Req: transferReq(fmt.Sprintf("t%d.%d", g, i), acct(3*g+i), acct(19), 1)})
			}
		}
		fx := newFixture(t, cfg, 20, script)
		c := fx.sys.coord
		kept := map[int64]*msgDecide{} // chain-announcing batch decides by epoch
		var slots []*epochState
		fx.cluster.SetPerturb(func(_, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
			if m, ok := msg.(*msgDecide); ok && m.Chain != nil && kept[m.Epoch] == nil {
				kept[m.Epoch] = m
				if !slices.Contains(slots, c.commit) {
					slots = append(slots, c.commit)
				}
			}
			return sim.Perturb{}
		})
		parkedOn := func(epoch int64) bool {
			for _, w := range fx.sys.workers {
				if ep := w.epochs[epoch]; ep != nil && ep.chain != nil {
					for _, p := range ep.chain.parked {
						if p.txnEvent != nil {
							return true
						}
					}
				}
			}
			return false
		}
		var stale *msgDecide
		fx.cluster.Start()
		for i := 0; stale == nil; i++ {
			if i > 200_000 {
				t.Fatalf("scenario: no chain in flight with an event parked right after a chained epoch (decides %d, slots %d)", len(kept), len(slots))
			}
			fx.cluster.RunUntil(fx.cluster.Now() + 5*time.Microsecond)
			st := c.commit
			if st == nil || !st.chained() || kept[st.epoch-1] == nil || !parkedOn(st.epoch) {
				continue
			}
			stale = kept[st.epoch-1]
			if len(slots) != 1 || stale.Chain != &st.plan || !slices.Equal(stale.Chain.Members, kept[st.epoch].Chain.Members) {
				t.Fatalf("scenario: %d slots; epoch %d's decide does not point at the plan epoch %d replanned into its slot",
					len(slots), stale.Epoch, st.epoch)
			}
			if !deliver {
				break
			}
			// The worker state the copy must leave alone, and every send.
			state := func() string {
				var b []string
				for _, w := range fx.sys.workers {
					b = append(b, fmt.Sprintf("%s applied %d store %x buffered %d", w.id, w.appliedEpoch, w.committed.Encode(), len(w.buffered)))
					for _, e := range slices.Sorted(maps.Keys(w.epochs)) {
						ep := w.epochs[e]
						line := fmt.Sprintf(" epoch %d %p round %d plan %p workspaces %v", e, ep, ep.round, ep.plan, slices.Sorted(maps.Keys(ep.workspaces)))
						if ep.chain != nil {
							line += fmt.Sprintf(" chain %+v", *ep.chain)
						}
						b = append(b, line)
					}
				}
				return fmt.Sprint(b)
			}
			before := state()
			for _, w := range fx.sys.workers {
				fx.cluster.Inject(fx.cluster.Now(), c.sys.coordID, w.id, stale)
			}
			sends := 0
			fx.cluster.SetTap(func(string, string, time.Duration, time.Duration, sim.Message) { sends++ })
			fx.cluster.RunUntil(fx.cluster.Now())
			fx.cluster.SetTap(nil)
			if after := state(); after != before || sends != 0 {
				t.Fatalf("epoch %d's stale decide, delivered during epoch %d's chain, sent %d messages and changed the workers:\n%s\nto\n%s",
					stale.Epoch, st.epoch, sends, before, after)
			}
		}
		fx.cluster.RunUntil(5 * time.Second)
		if fx.client.Done != len(script) || c.FallbackChains < 2 {
			t.Fatalf("scenario: %d of %d answered, %d chains", fx.client.Done, len(script), c.FallbackChains)
		}
		out := outcome{responses: fx.client.Responses, stats: c.CoordinatorStats,
			serials: c.CommitSerials(func(string) (interp.Value, bool) { return interp.None, false })}
		for _, w := range fx.sys.workers {
			out.stores = append(out.stores, fmt.Sprintf("%x", w.committed.Encode()))
		}
		return out
	}
	with, without := run(t, true), run(t, false)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("the chain answered differently after the stale decide:\n with %+v\nwithout %+v", with, without)
	}
}

// TestFallbackChainAllocatesNothing: a contended epoch whose conflict aborts
// a chain rescues, run again through the same coordinator slot and the same
// worker epochs, allocates nothing for the chain itself. The coordinator
// leg runs the slot's steps — the batch, its plan, the chain's progress and
// both decides — and allocates only the two decide boxes. The worker leg
// delivers a batch decide announcing a two-member chain into one payee, the
// two members' chain dispatches (in bodies the test keeps, as the
// coordinator's per-dispatch body is counted apart) with the second parked
// behind the first at the payee's owner, and the final decide: it allocates
// only the boxes of the releases a member's finish sends to the other
// owners of its footprint.
func TestFallbackChainAllocatesNothing(t *testing.T) {
	payee := interp.EntityRef{Class: "Account", Key: acct(9)}
	t.Run("coordinator", func(t *testing.T) {
		st := &epochState{}
		var sets rwSets
		sets.rw = &aria.RWSet{}
		sets.rw.Write(aria.ResKey{Key: acct(8)}, 1)
		classOf := func(int) string { return "Account" }
		var reqs []pendingReq
		for i := range 3 { // a batch whose order fits its decide
			reqs = append(reqs, pendingReq{req: transferReq("t", acct(i), payee.Key, 1)})
		}
		epoch := int64(0)
		run := func() {
			epoch++
			st.reset(epoch)
			for i, p := range reqs {
				m := st.add(aria.TID(100*epoch)+aria.TID(i), p)
				m.finished, m.aborted = true, i > 0
				if i == 2 {
					m.sets = &sets
				}
			}
			st.unfinished = 0
			st.close()
			if st.scheduleFallback(classOf) != 2 || len(st.decision().Aborts) != 2 {
				t.Fatal("scenario: the batch does not chain its two aborts")
			}
			st.beginChain()
			for m, tid := range st.plan.Members {
				st.txn(tid).finished, st.txn(tid).aborted = true, false
				if !st.chain.Ready(m) {
					t.Fatalf("scenario: chain member %d is not ready after its predecessors", m)
				}
				if !st.releaseChained(m) {
					t.Fatalf("scenario: member %d alone does not complete its depth level", m)
				}
			}
			if m := st.decision(); !m.Final || len(m.Aborts) != 0 {
				t.Fatal("scenario: the chain's decide is not final or aborts someone")
			}
		}
		run()
		if st.plan.Depth != 2 || len(st.plan.Refs) != 4 {
			t.Fatalf("scenario: chain depth %d over %d entities, want 2 over 4", st.plan.Depth, len(st.plan.Refs))
		}
		allocs := testing.AllocsPerRun(100, run)
		t.Logf("a warm chained epoch on the coordinator: %.0f allocations, 2 of them the decide boxes", allocs)
		if allocs != 2 {
			t.Errorf("a warm chained epoch allocated %.0f times on the coordinator, want only its 2 decide boxes: "+
				"the plan, the chain's progress, the level counts or the decides' aborts allocate", allocs)
		}
	})
	t.Run("workers", func(t *testing.T) {
		cluster, dep := deploy(t, bank, DefaultConfig(), func(preload func(class string, args ...interp.Value)) {
			for i := range 10 {
				preload("Account", interp.StrV(acct(i)), interp.IntV(1<<40))
			}
		})
		sys := dep.Single()
		var payers []interp.EntityRef
		for i := 0; i < 9 && len(payers) < 2; i++ {
			if ref := (interp.EntityRef{Class: "Account", Key: acct(i)}); sys.ownerOf(ref) != sys.ownerOf(payee) {
				payers = append(payers, ref)
			}
		}
		if len(payers) < 2 {
			t.Fatal("scenario: fewer than two payers away from the payee's owner")
		}
		batch, tids := []aria.TID{1, 2, 3}, []aria.TID{2, 3} // 1 committed in round 0
		var plan aria.ChainPlan
		bodies := []*txnBody{new(txnBody), new(txnBody)}
		dec := &msgDecide{}
		releases, parked := 0, 0
		cluster.SetTap(func(_, _ string, _, _ time.Duration, msg sim.Message) {
			if _, ok := msg.(msgChainRelease); ok {
				releases++
			}
		})
		owner := sys.workers[sys.OwnerIndex(payee)]
		broadcast := func() {
			for _, w := range sys.workerIDs {
				cluster.Inject(cluster.Now(), sys.coordID, w, dec)
			}
			if n := cluster.RunUntil(cluster.Now() + time.Hour); n > 100 {
				t.Fatalf("%d events ran, want the decide's or the event's few", n)
			}
		}
		var roots []core.Event
		for _, payer := range payers[:2] {
			roots = append(roots, core.Event{Kind: core.EvInvoke, Req: "t", Target: payer, Method: "transfer",
				Args: []interp.Value{interp.IntV(1), interp.RefV(payee.Class, payee.Key)}})
		}
		dispatch := func(m int, epoch int64) {
			b := bodies[m]
			*b = txnBody{txnEvent: txnEvent{TID: tids[m], Epoch: epoch, Round: 1}}
			b.ctx = &b.chain
			b.forward(roots[m], nil)
			cluster.Inject(cluster.Now(), sys.coordID, sys.ownerOf(payers[m]), msgTxnEvent{&b.txnEvent})
			if n := cluster.RunUntil(cluster.Now() + time.Hour); n > 100 {
				t.Fatalf("%d events ran, want the decide's or the event's few", n)
			}
		}
		round := func() {
			epoch := sys.workers[0].appliedEpoch + 1
			aria.PlanChain(&plan, append(plan.Members[:0], tids...), func(i int, buf []interp.EntityRef) []interp.EntityRef {
				return append(buf, payers[i], payee)
			})
			*dec = msgDecide{Epoch: epoch, Order: batch, Aborts: tids, Chain: &plan}
			broadcast()
			dispatch(1, epoch) // parks at the payee's owner behind member 0
			if ep := owner.epochs[epoch]; ep != nil && ep.chain != nil && len(ep.chain.parked) == 2 && ep.chain.parked[1].txnEvent != nil {
				parked++
			}
			dispatch(0, epoch)
			*dec = msgDecide{Epoch: epoch, Round: 1, Order: plan.Members, Final: true}
			broadcast()
		}
		round()
		round()
		releases, parked = 0, 0
		allocs := testing.AllocsPerRun(50, round) // 51 rounds, its warm-up included
		for _, w := range sys.workers {
			if len(w.epochs) != 0 || w.appliedEpoch < 52 {
				t.Fatalf("scenario: %s applied epoch %d with %d epochs open", w.id, w.appliedEpoch, len(w.epochs))
			}
		}
		if parked != 51 || releases != 2*51 {
			t.Fatalf("scenario: %d of 51 rounds parked the second member, %d releases sent, want 2 a round", parked, releases)
		}
		t.Logf("a warm chain on the workers: %.0f allocations, 2 of them the release boxes", allocs)
		if allocs != 2 {
			t.Errorf("a warm chain allocated %.0f times on the workers, want only its 2 release boxes: "+
				"the worker epoch, its chain's progress, a parked event or a workspace allocates", allocs)
		}
	})
}

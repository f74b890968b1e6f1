package stateflow

import (
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
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
// but nothing of its epoch — no member, ack, chain or round survives the
// reset that reuses it.
func TestReleasedEpochSlotIsReset(t *testing.T) {
	st := &epochState{}
	st.reset(3)
	for tid := aria.TID(10); tid < 14; tid++ {
		st.add(tid, pendingReq{pos: int64(tid)})
	}
	st.close()
	st.acks.add("w0", 2)
	st.chain = &aria.Chain{}
	st.round, st.levelLeft, st.binding = 1, []int32{1}, true
	txns, order := st.txns, st.order

	st.reset(4)
	if st.epoch != 4 || st.phase != phaseOpen || len(st.txns) != 0 || len(st.order) != 0 || len(st.acks) != 0 ||
		st.chain != nil || st.levelLeft != nil || st.round != 0 || st.binding || st.unfinished != 0 {
		t.Fatalf("reset left epoch state behind: %+v", st)
	}
	if &st.txns[:1][0] != &txns[0] || &st.order[:1][0] != &order[0] || st.acks == nil {
		t.Fatal("reset dropped the slot's backing stores")
	}
	if slices.ContainsFunc(txns, func(t *txnState) bool { return t != nil }) {
		t.Fatal("reset left a member of the released batch reachable")
	}
	st.add(20, pendingReq{})
	if st.first != 20 || st.txn(20) == nil || st.txn(10) != nil {
		t.Fatal("the reused slot does not index its own batch")
	}
}

// TestSettledWorkerEpochIsReused: an epoch's final decide retires its
// execution state to the worker's free list, emptied, and the next epoch to
// reach the worker takes it.
func TestSettledWorkerEpochIsReused(t *testing.T) {
	f := newDurableFixture(t, 42, recycleConfig(0), 24, 4)
	w := f.sys.workers[0]
	ep := w.liveEpoch(1, 0)
	w.workspace(ep, 7)
	ep.plan = &aria.ChainPlan{}
	w.retire(1)
	if _, live := w.epochs[1]; live || len(w.free) != 1 || w.free[0] != ep {
		t.Fatalf("retire left epochs %v, free list %v", w.epochs, w.free)
	}
	if len(ep.workspaces) != 0 || ep.plan != nil || ep.chain != nil || ep.round != 0 {
		t.Fatalf("a retired epoch kept its state: %+v", ep)
	}
	if got := w.liveEpoch(2, 1); got != ep || got.round != 1 || len(w.free) != 0 {
		t.Fatal("the next epoch did not reuse the retired one")
	}
}

// TestEpochStateIsRecycledAcrossEpochs: a run of many epochs with no
// recovery cycles through a handful of coordinator slots and worker epochs
// — the two pipeline slots plus the spare, and per worker the epochs in
// flight — instead of one of each per epoch.
func TestEpochStateIsRecycledAcrossEpochs(t *testing.T) {
	f := newDurableFixture(t, 42, recycleConfig(0), 48, 4)
	c := f.sys.Coordinator()
	slots, eps := map[*epochState]bool{}, map[*workerEpoch]bool{}
	f.cluster.Start()
	for f.cluster.Now() < 300*time.Millisecond {
		f.cluster.RunUntil(f.cluster.Now() + 50*time.Microsecond)
		for _, st := range []*epochState{c.exec, c.commit} {
			if st != nil {
				slots[st] = true
			}
		}
		for _, w := range f.sys.workers {
			for _, ep := range w.epochs {
				eps[ep] = true
			}
		}
	}
	t.Logf("%d epochs used %d coordinator slots and %d worker epochs", c.EpochsClosed, len(slots), len(eps))
	if c.EpochsClosed < 20 || c.Recoveries != 0 {
		t.Fatalf("scenario: %d epochs closed, %d recoveries", c.EpochsClosed, c.Recoveries)
	}
	if len(slots) > 3 || len(eps) > 2*len(f.sys.workers) {
		t.Fatal("epochs are allocating their state instead of reusing it")
	}
}

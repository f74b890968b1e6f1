package stateflow

import (
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// What the epoch machine's representation rests on, checked without seeds:
// every case places its faults and duplicates by protocol state.

// TestEpochTIDsAreContiguous: a closed batch's TIDs are exactly
// first … first+n−1, whichever path filled it. The TID-indexed batch
// depends on it, and epochState.add panics when it breaks; this asserts it
// from the outside — the TIDs a coordinator dispatched for a batch against
// the order it put in msgPrepare — over a run that takes every assignment path on two shards: direct intake and
// a MaxBatch-chunked source backlog, a drain of spilled retries, a fenced
// global apply, and a coordinator crash whose binding replay runs under
// the fence.
func TestEpochTIDsAreContiguous(t *testing.T) {
	const maxBatch = 4
	fx := newBindingFixture(t, 12, 16, func(c *Config) {
		c.Shards, c.MaxBatch, c.FallbackRoundBudget = 2, maxBatch, 1
	})
	type closed struct {
		coord string
		epoch int64
	}
	// What each coordinator dispatched for a batch's first execution, in
	// assignment order, and the order it then closed the batch with.
	assigned, orders := map[closed][]aria.TID{}, map[closed][]aria.TID{}
	coords := map[string]bool{}
	for _, sh := range fx.sys.Shards() {
		coords[sh.coordID] = true
	}
	fx.cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		switch m := msg.(type) {
		case msgTxnEvent:
			if coords[from] && m.Round == 0 {
				b := closed{from, m.Epoch}
				assigned[b] = append(assigned[b], m.TID)
			}
		case msgPrepare:
			if m.Round == 0 {
				orders[closed{from, m.Epoch}] = m.Order // one copy per worker
			}
		}
		return sim.Perturb{}
	})
	c := fx.shard.Coordinator()
	answered := func() bool { return len(fx.client.got) == fx.sent }

	// Three batches' worth of arrivals in one instant: the first fills from
	// the intake, the rest wait in the source log and drain chunk by chunk.
	for _, key := range fx.keys {
		fx.submit(key, "set", interp.IntV(1))
	}
	fx.runUntil("the backlog answered", answered)
	// A conflict chain under a one-round budget: the tail spills into the
	// retry queue, which the next epochs drain.
	for i := 0; i < maxBatch; i++ {
		fx.submit(fx.keys[0], "add", interp.IntV(1))
	}
	fx.runUntil("the chain answered", answered)
	if c.FallbackSpills == 0 {
		t.Fatal("no fallback member spilled: the retry drain was never exercised")
	}
	// Park shard 0 behind a cross-shard gather, then crash its coordinator:
	// the binding replay and the global apply both run under the fence.
	fx.submit(fx.keys[1], "gather", interp.RefV("Reg", fx.remote), interp.RefV("Reg", fx.remote))
	fx.runUntil("shard 0 parked", func() bool { return c.fenced })
	if widest, fenced := fx.crashAndReplay(); widest < 2 || !fenced {
		t.Fatalf("binding replay: widest batch %d, fenced=%v; want a multi-member batch under the fence", widest, fenced)
	}
	if c.BindingEpochs == 0 || c.GlobalApplies == 0 || !answered() {
		t.Fatalf("binding epochs=%d global applies=%d answered=%d/%d: a path was not exercised",
			c.BindingEpochs, c.GlobalApplies, len(fx.client.got), fx.sent)
	}
	if div := fx.diverged(); len(div) > 0 {
		t.Fatalf("state diverged from the serial run: %v", div)
	}

	full := 0
	for b, order := range orders {
		for i, tid := range order {
			if tid != order[0]+aria.TID(i) {
				t.Fatalf("%s epoch %d closed with TIDs %v: not a contiguous range", b.coord, b.epoch, order)
			}
		}
		if !slices.Equal(order, assigned[b]) {
			t.Fatalf("%s epoch %d closed with TIDs %v but assigned %v", b.coord, b.epoch, order, assigned[b])
		}
		if b.coord == fx.shard.coordID && len(order) == maxBatch {
			full++
		}
	}
	if full < 3 {
		t.Fatalf("%d of %d batches closed at the cap of %d, want the chunked backlog's 3", full, len(orders), maxBatch)
	}

	// And the in-code guard is there: a TID minted out of turn is refused.
	st := &epochState{}
	st.add(7, pendingReq{})
	defer func() {
		if recover() == nil {
			t.Fatal("epochState.add accepted TID 9 after 7")
		}
	}()
	st.add(9, pendingReq{})
}

// TestAckCountsAWorkerOnce: in each of the four phases that wait on every
// worker — validate, apply, snapshot, recovery — a worker's answer counts
// once. Duplicates of an answer already in (as many as there are workers,
// so a tally in place of a set would complete the phase) neither bump the
// failure detector's progress counter nor advance the phase, and a
// duplicated vote's content is not folded in a second time.
func TestAckCountsAWorkerOnce(t *testing.T) {
	const n = 24
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1
	cfg.EpochInterval = 10 * time.Millisecond
	f := newDurableFixture(t, 42, cfg, n, 4)
	f.cluster.Start()
	c := f.sys.Coordinator()
	workers := len(f.sys.workerIDs)

	// duplicate steps until the phase under test holds some but not all of
	// its answers, then re-delivers one of them once per worker.
	duplicate := func(what string, acks func() ackSet, dup func(st *epochState) sim.Message) {
		t.Helper()
		for i := 0; len(acks()) == 0 || len(acks()) == workers; i++ {
			if i > 500_000 {
				t.Fatalf("never caught the %s phase partly answered", what)
			}
			f.cluster.RunUntil(f.cluster.Now() + 5*time.Microsecond)
		}
		var from string
		for from = range acks() {
			break
		}
		st, now := c.commit, f.cluster.Now()
		var phaseBefore phase
		if st != nil {
			phaseBefore = st.phase
		}
		progress, have, recovering := c.progress, len(acks()), c.recovering
		for i := 0; i < workers; i++ {
			f.cluster.Inject(now, from, f.sys.coordID, dup(st))
		}
		f.cluster.RunUntil(now)
		if c.progress != progress || len(acks()) != have {
			t.Fatalf("%s: %d duplicates from %s moved progress %d → %d, answers %d → %d",
				what, workers, from, progress, c.progress, have, len(acks()))
		}
		if c.commit != st || (st != nil && st.phase != phaseBefore) || c.recovering != recovering {
			t.Fatalf("%s: duplicates from %s advanced the phase", what, from)
		}
	}
	inPhase := func(p phase) func() ackSet {
		return func() ackSet {
			if st := c.commit; st != nil && st.phase == p {
				return st.acks
			}
			return nil
		}
	}

	duplicate("validate", inPhase(phasePrepare), func(st *epochState) sim.Message {
		return msgVote{Epoch: st.epoch, Round: st.round, Aborts: st.order}
	})
	if slices.ContainsFunc(c.commit.txns, func(t *txnState) bool { return t.aborted }) {
		t.Fatal("validate: a duplicated vote's aborts were folded into the round")
	}
	duplicate("apply", inPhase(phaseApply), func(st *epochState) sim.Message {
		return msgApplied{Epoch: st.epoch, Round: st.round}
	})
	duplicate("snapshot", func() ackSet {
		if st := c.commit; st == nil || st.phase != phaseSnapshot {
			return nil
		}
		return c.snapDone
	}, func(*epochState) sim.Message { return msgSnapshotDone{ID: c.snapshotID} })

	now := f.cluster.Now()
	f.cluster.ScheduleCrash(f.sys.workerIDs[0], now, now+5*time.Millisecond)
	duplicate("recovery", func() ackSet {
		if !c.recovering {
			return nil
		}
		return c.recovered
	}, func(*epochState) sim.Message { return msgRecovered{SnapshotID: c.snapshotID, Epoch: c.epoch} })

	f.cluster.RunUntil(20 * time.Second)
	if c.Recoveries == 0 {
		t.Fatal("the worker crash never triggered a recovery")
	}
	f.assertExactlyOnceEffective(t, n)
}

// TestRoundZeroAndRoundKShareTheSettle drives an epochState alone — no
// coordinator, no cluster — through a batch whose fallback schedule runs
// three rounds, and pins, round by round, the decide (Aborts, Final) and
// the outcome class of every member. The batch:
//
//	T1 w(x)          commits in round 0
//	T2 r(x) w(y)     RAW on T1   ┐ the conflict chain T1 → T2 → T3
//	T3 r(y) w(z)     RAW on T2   ┘
//	T4 r(x) w(v)     RAW on T1; declared disjoint from T2, so scheduled with it
//	T5 r(q)          fails with an application error
//
// T4's re-execution drifts: it now also reads z, which the later-round,
// lower-TID T3 writes — so it may not commit ahead of T3 and is demoted.
// T3's re-execution fails with an application error. Rescued, retried,
// demoted and failed are four different fates.
func TestRoundZeroAndRoundKShareTheSettle(t *testing.T) {
	key := func(k string) aria.ResKey { return aria.ResKey{Key: k} }
	const all = aria.AllBits
	type access struct{ reads, writes []string }
	set := func(a access) *aria.RWSet {
		rw := aria.NewRWSet()
		for _, k := range a.reads {
			rw.Read(key(k), all)
		}
		for _, k := range a.writes {
			rw.Write(key(k), all)
		}
		return rw
	}
	// vote is one worker's: it validates the local sets it holds, as
	// Worker.onPrepare does, and ships them.
	vote := func(st *epochState, local map[aria.TID]access) {
		sets := map[aria.TID]*aria.RWSet{}
		for tid, a := range local {
			sets[tid] = set(a)
		}
		st.vote(aria.Validate(st.order, sets), sets)
	}
	newBatch := func() *epochState {
		st := &epochState{}
		for tid := aria.TID(1); tid <= 5; tid++ {
			st.add(tid, pendingReq{})
		}
		st.close()
		st.txn(5).err = "boom"
		// Worker A owns x and y, worker B owns z, v and q.
		vote(st, map[aria.TID]access{
			1: {writes: []string{"x"}},
			2: {reads: []string{"x"}, writes: []string{"y"}},
			3: {reads: []string{"y"}},
			4: {reads: []string{"x"}},
		})
		vote(st, map[aria.TID]access{
			3: {writes: []string{"z"}},
			4: {writes: []string{"v"}},
			5: {reads: []string{"q"}},
		})
		return st
	}
	type round struct {
		order, aborts []aria.TID
		final         bool
		outcomes      []outcome // of order's members
	}
	check := func(st *epochState, budget int, want round) (demoted []aria.TID) {
		t.Helper()
		m := st.decision(budget)
		var outcomes []outcome
		for _, tid := range st.order {
			o := st.outcome(st.txn(tid))
			outcomes = append(outcomes, o)
			if o == outDemoted {
				demoted = append(demoted, tid)
			}
		}
		got := round{m.Order, m.Aborts, m.Final, outcomes}
		if !slices.Equal(got.order, want.order) || !slices.Equal(got.aborts, want.aborts) ||
			got.final != want.final || !slices.Equal(got.outcomes, want.outcomes) {
			t.Fatalf("round %d:\n got %+v\nwant %+v", st.round, got, want)
		}
		return demoted
	}

	st := newBatch()
	dynamic := func(*txnState) bool { return false }
	if rescued, _ := st.scheduleFallback(dynamic, 0); rescued != 3 {
		t.Fatalf("schedule rescued %d members, want T2, T3, T4", rescued)
	}
	check(st, 0, round{
		order:    []aria.TID{1, 2, 3, 4, 5},
		aborts:   []aria.TID{2, 3, 4, 5},
		outcomes: []outcome{outCommitted, outRescued, outRescued, outRescued, outFailed},
	})

	// Round 1: T2 and T4 re-execute; T4 drifts onto T3's z.
	st.nextRound()
	vote(st, map[aria.TID]access{2: {reads: []string{"x"}, writes: []string{"y"}}, 4: {reads: []string{"x"}}})
	vote(st, map[aria.TID]access{4: {reads: []string{"z"}, writes: []string{"v"}}})
	if n := st.demoteDrifted(); n != 1 {
		t.Fatalf("round 1 demoted %d members, want T4", n)
	}
	st.requeue(check(st, 0, round{
		order:    []aria.TID{2, 4},
		aborts:   []aria.TID{4},
		outcomes: []outcome{outCommitted, outDemoted},
	}))

	// Under a one-round budget the epoch would end here instead: the same
	// decide is final and what is left of the schedule spills, in TID order.
	if !st.decision(1).Final {
		t.Fatal("round 1 at a budget of 1: decide not final")
	}
	if left := slices.Concat(st.rounds...); !slices.Equal(left, []aria.TID{3, 4}) {
		t.Fatalf("after round 1 the schedule holds %v, want the demoted T4 merged behind T3", left)
	}

	// Round 2: T3 fails; T4 reads the z T3 writes in this same round, so the
	// round's own validation voids it.
	st.nextRound()
	st.txn(3).err = "boom"
	vote(st, map[aria.TID]access{3: {reads: []string{"y"}}, 4: {reads: []string{"x"}}})
	vote(st, map[aria.TID]access{3: {writes: []string{"z"}}, 4: {reads: []string{"z"}, writes: []string{"v"}}})
	if n := st.demoteDrifted(); n != 0 {
		t.Fatalf("round 2 demoted %d members by drift, want none (validation already voided T4)", n)
	}
	st.requeue(check(st, 0, round{
		order:    []aria.TID{3, 4},
		aborts:   []aria.TID{3, 4},
		outcomes: []outcome{outFailed, outDemoted},
	}))

	// Round 3: T4 alone.
	st.nextRound()
	vote(st, map[aria.TID]access{4: {reads: []string{"x"}}})
	vote(st, map[aria.TID]access{4: {reads: []string{"z"}, writes: []string{"v"}}})
	if n := st.demoteDrifted(); n != 0 {
		t.Fatalf("round 3 demoted %d members, want none", n)
	}
	if demoted := check(st, 0, round{
		order:    []aria.TID{4},
		aborts:   []aria.TID{},
		final:    true,
		outcomes: []outcome{outCommitted},
	}); len(demoted) != 0 || len(st.spill()) != 0 {
		t.Fatal("round 3 left work behind")
	}

	// The same batch with no schedule computed (a binding batch, or
	// DisableFallback's reference schedule): the conflict aborts are
	// nobody's to re-execute — they retry in the next batch — and the
	// batch's decide is the epoch's last.
	check(newBatch(), 0, round{
		order:    []aria.TID{1, 2, 3, 4, 5},
		aborts:   []aria.TID{2, 3, 4, 5},
		final:    true,
		outcomes: []outcome{outCommitted, outRetried, outRetried, outRetried, outFailed},
	})
}

// String names an outcome in a failed table comparison.
func (o outcome) String() string {
	return [...]string{"committed", "failed", "retried", "rescued", "demoted"}[o]
}

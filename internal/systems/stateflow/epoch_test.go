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
// from the outside — the TIDs a coordinator dispatched for a batch, plus the
// global apply its decide carries (an apply executes nothing, so no event
// names it), against the order its round-0 msgDecide carries — over a run that takes
// every assignment path on two shards: direct intake and a MaxBatch-chunked
// source backlog, a conflict chain, a fenced global apply, and a
// coordinator crash whose binding replay runs under the fence. With the
// fallback on the chain's aborts re-execute in their epoch; with it off they
// retry, and the next batches drain them from the retry queue.
func TestEpochTIDsAreContiguous(t *testing.T) {
	t.Run("fallback", func(t *testing.T) { testEpochTIDsAreContiguous(t, false) })
	t.Run("retry-drain", func(t *testing.T) { testEpochTIDsAreContiguous(t, true) })
}

// testEpochTIDsAreContiguous runs one leg of TestEpochTIDsAreContiguous.
func testEpochTIDsAreContiguous(t *testing.T, disableFallback bool) {
	const maxBatch = 4
	fx := newBindingFixture(t, 12, 16, func(c *Config) {
		c.Shards, c.MaxBatch, c.DisableFallback = 2, maxBatch, disableFallback
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
		case *msgDecide:
			if m.Round != 0 {
				break
			}
			// One copy per worker. The apply is the batch's last member.
			b := closed{from, m.Epoch}
			orders[b] = m.Order
			if tid := m.Order[len(m.Order)-1]; m.Apply != nil && !slices.Contains(assigned[b], tid) {
				assigned[b] = append(assigned[b], tid)
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
	// A conflict chain: every member after the first aborts.
	for i := 0; i < maxBatch; i++ {
		fx.submit(fx.keys[0], "add", interp.IntV(1))
	}
	fx.runUntil("the chain answered", answered)
	moved, counter := c.FallbackCommits, "fallback commits"
	if disableFallback {
		moved, counter = c.Aborts, "retried aborts"
	}
	if moved == 0 {
		t.Fatalf("no %s: the conflict chain was never exercised", counter)
	}
	// Park shard 0 behind a cross-shard gather, then crash its coordinator:
	// the binding replay and the global apply both run under the fence.
	fx.submit(fx.keys[1], "gather", interp.RefV("Reg", fx.remote), interp.RefV("Reg", fx.remote))
	fx.runUntil("shard 0 parked", func() bool { return c.fenceSeq != 0 })
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

// TestAckCountsAWorkerOnce: a worker's answer counts once — a round-0
// finish, and its ack in each of the three phases that wait on every worker:
// apply, snapshot, recovery. Duplicates of an answer already in (as many as
// there are workers, so a tally in place of a set would complete the phase)
// neither bump the failure detector's progress counter nor advance the
// phase, and a duplicated finish's content is not folded in a second time.
func TestAckCountsAWorkerOnce(t *testing.T) {
	const n = 24
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1
	cfg.EpochInterval = 10 * time.Millisecond
	f := newDurableFixture(t, 42, cfg, n, 4)
	inBursts(f.client.inner.Script, 4)
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
				return c.acks
			}
			return nil
		}
	}

	// A round-0 finish already in, re-delivered with a different answer while
	// its batch still waits for other members.
	var st *epochState
	for i := 0; st == nil; i++ {
		if i > 500_000 {
			t.Fatal("never caught a batch partly finished")
		}
		f.cluster.RunUntil(f.cluster.Now() + 5*time.Microsecond)
		if x := c.exec; x != nil && x.round == 0 && x.unfinished > 0 &&
			slices.ContainsFunc(x.txns, func(t *txnState) bool { return t.finished }) {
			st = x
		}
	}
	i := slices.IndexFunc(st.txns, func(t *txnState) bool { return t.finished })
	done, now := st.txns[i], f.cluster.Now()
	progress, unfinished, value := c.progress, st.unfinished, done.value
	owner := f.sys.ownerOf(done.req.Target)
	for range workers {
		f.cluster.Inject(now, owner, f.sys.coordID,
			msgTxnFinished{&txnEvent{TID: st.first + aria.TID(i), Epoch: st.epoch, Err: "duplicate"}})
	}
	f.cluster.RunUntil(now)
	if c.progress != progress || st.unfinished != unfinished || !done.value.Equal(value) || done.err == "duplicate" {
		t.Fatalf("finish: %d duplicates moved progress %d → %d, unfinished %d → %d, or were folded in (err %q)",
			workers, progress, c.progress, unfinished, st.unfinished, done.err)
	}
	duplicate("apply", inPhase(phaseApply), func(st *epochState) sim.Message {
		return msgApplied{&msgDecide{Epoch: st.epoch, Round: st.round}}
	})
	duplicate("snapshot", inPhase(phaseSnapshot), func(*epochState) sim.Message { return msgSnapshotDone{ID: c.snapshotID} })

	// Crash a worker while a decide is on its way to it: its ack never
	// comes, so the apply stalls and the detector recovers.
	for i := 0; ; i++ {
		if st := c.commit; st != nil && st.phase == phaseApply && len(c.acks) == 0 {
			break
		}
		if i > 500_000 {
			t.Fatal("never caught a decide in flight")
		}
		f.cluster.RunUntil(f.cluster.Now() + 5*time.Microsecond)
	}
	now = f.cluster.Now()
	f.cluster.ScheduleCrash(f.sys.workerIDs[0], now, now+5*time.Millisecond)
	duplicate("recovery", func() ackSet {
		if !c.recovering {
			return nil
		}
		return c.acks
	}, func(*epochState) sim.Message { return msgRecovered{SnapshotID: c.snapshotID, Epoch: c.epoch} })

	f.cluster.RunUntil(20 * time.Second)
	if c.Recoveries == 0 {
		t.Fatal("the worker crash never triggered a recovery")
	}
	f.assertExactlyOnceEffective(t, n)
}

// The self-clocked close (Coordinator.selfClose), placed by protocol state:
// an open batch closes in the event that finishes its last member if the
// commit slot is free, or in the event that frees the slot; the epoch timer
// only bounds the wait.

// regOwner returns the worker that owns register key on shard 0.
func (fx *bindingFixture) regOwner(key string) *Worker {
	return fx.shard.workers[fx.shard.OwnerIndex(interp.EntityRef{Class: "Reg", Key: key})]
}

// TestSelfClockClosesAnIdleArrivalAtItsFinish: a lone update arriving at an
// idle coordinator is decided in the event its finish arrives, not at the
// epoch's deadline.
func TestSelfClockClosesAnIdleArrivalAtItsFinish(t *testing.T) {
	const interval = 50 * time.Millisecond
	fx := newBindingFixture(t, 8, 16, func(c *Config) { c.EpochInterval = interval })
	c := fx.shard.Coordinator()
	fx.cluster.RunUntil(2 * interval)
	arrived := fx.cluster.Now()
	fx.submit(fx.keys[0], "add", interp.IntV(1))
	fx.runUntil("the arrival assigned", func() bool { return c.exec != nil && len(c.exec.txns) == 1 })
	epoch, deadline := c.exec.epoch, c.exec.closeAt
	fx.runUntil("the batch decided", func() bool { return c.commit != nil && c.commit.epoch == epoch })
	// The decide entered the apply phase in the event that counted the
	// member's finish; only the coordinator's own CPU lies between them.
	if st := c.commit; st.phaseAt-c.progressAt > 100*time.Microsecond || st.phaseAt-arrived > interval/10 {
		t.Fatalf("arrived %v, finished %v, decided %v (deadline %v): the batch waited past its member's finish",
			arrived, c.progressAt, st.phaseAt, deadline)
	}
	fx.runUntil("the call answered", func() bool { return len(fx.client.got) == fx.sent })
}

// TestSelfClockKeepsABatchWithAnUnfinishedMemberOpen: of two updates that
// share a batch, one's event is held on the wire. The other's finish leaves
// the batch open with the commit slot free; the held member's finish closes
// it.
func TestSelfClockKeepsABatchWithAnUnfinishedMemberOpen(t *testing.T) {
	const hold = 10 * time.Millisecond
	fx := newBindingFixture(t, 16, 16, func(c *Config) { c.EpochInterval = 50 * time.Millisecond })
	c := fx.shard.Coordinator()
	fast, slow := fx.keys[0], ""
	for _, key := range fx.keys[1:] {
		if fx.regOwner(key) != fx.regOwner(fast) {
			slow = key
			break
		}
	}
	fx.cluster.SetPerturb(func(from, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(msgTxnEvent); ok && from == fx.shard.coordID && m.Round == 0 && m.Ev.Target.Key == slow {
			return sim.Perturb{Delay: hold}
		}
		return sim.Perturb{}
	})
	fx.submit(fast, "add", interp.IntV(1))
	fx.submit(slow, "add", interp.IntV(2))
	fx.runUntil("the fast member finished", func() bool {
		st := c.exec
		return st != nil && len(st.txns) == 2 && st.unfinished == 1
	})
	st, epoch := c.exec, c.exec.epoch
	fx.cluster.RunUntil(fx.cluster.Now() + hold/2)
	if c.exec != st || st.phase != phaseOpen || st.unfinished != 1 || c.commit != nil {
		t.Fatal("the batch closed with a member unfinished")
	}
	fx.runUntil("the batch decided", func() bool { return c.commit != nil && c.commit.epoch == epoch })
	if gap := c.commit.phaseAt - c.progressAt; gap > 100*time.Microsecond || c.progressAt < hold {
		t.Fatalf("decided %v after the last finish at %v, want it in that event, after the %v hold", gap, c.progressAt, hold)
	}
	fx.runUntil("both calls answered", func() bool { return len(fx.client.got) == fx.sent })
}

// TestSelfClockWaitsForTheCommitSlot: one worker's apply ack for batch A is
// held on the wire, so A occupies the commit slot. B, opened behind it,
// finishes its only member and stays open; the held ack releases the slot,
// and B closes and is decided in that event.
func TestSelfClockWaitsForTheCommitSlot(t *testing.T) {
	const hold = 10 * time.Millisecond
	fx := newBindingFixture(t, 8, 16, func(c *Config) { c.EpochInterval = 50 * time.Millisecond })
	c := fx.shard.Coordinator()
	slowEpoch, late := int64(-1), fx.shard.workers[0].id
	fx.cluster.SetPerturb(func(from, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(msgApplied); ok && m.Epoch == slowEpoch && from == late {
			return sim.Perturb{Delay: hold}
		}
		return sim.Perturb{}
	})
	fx.submit(fx.keys[0], "add", interp.IntV(1))
	fx.runUntil("A assigned", func() bool { return c.exec != nil && len(c.exec.txns) == 1 })
	slowEpoch = c.exec.epoch
	fx.runUntil("A decided", func() bool { return c.commit != nil && c.commit.epoch == slowEpoch })
	fx.submit(fx.keys[1], "add", interp.IntV(2))
	fx.runUntil("B finished", func() bool {
		st := c.exec
		return st != nil && len(st.txns) == 1 && st.unfinished == 0
	})
	b := c.exec.epoch
	fx.cluster.RunUntil(fx.cluster.Now() + hold/4)
	if c.exec == nil || c.exec.epoch != b || c.exec.phase != phaseOpen || c.commit == nil || c.commit.epoch != slowEpoch {
		t.Fatal("B closed while A held the commit slot")
	}
	fx.runUntil("B decided", func() bool { return c.commit != nil && c.commit.epoch == b })
	// The held ack is the last worker answer counted before B's decide.
	if gap := c.commit.phaseAt - c.progressAt; gap > 100*time.Microsecond || c.progressAt < hold {
		t.Fatalf("B decided %v after the commit slot's release at %v, want it in that event", gap, c.progressAt)
	}
	fx.runUntil("both calls answered", func() bool { return len(fx.client.got) == fx.sent })
}

// TestSelfClockLeavesBindingAndFencedEpochsAlone: a binding epoch takes its
// whole window when it opens and a parked epoch takes nothing but its apply,
// so neither is ever an open batch a finish could close. Checked at every
// step of a run that parks shard 0 with updates queued behind the fence,
// then crashes its coordinator so the binding replay runs under the fence.
func TestSelfClockLeavesBindingAndFencedEpochsAlone(t *testing.T) {
	fx := newBindingFixture(t, 12, 16, func(c *Config) { c.Shards = 2 })
	c := fx.shard.Coordinator()
	for _, key := range fx.keys[:6] {
		fx.call(key, "set", interp.IntV(3))
	}
	var binding, parked int
	watch := func() {
		st := c.exec
		switch {
		case st == nil:
		case st.binding:
			binding++
			if st.phase == phaseOpen {
				t.Fatalf("binding epoch %d is open with %d members", st.epoch, len(st.txns))
			}
		case c.fenceSeq != 0 && st.phase == phaseOpen:
			parked++
			if len(st.txns) != 0 {
				t.Fatalf("parked epoch %d took %d members", st.epoch, len(st.txns))
			}
		}
	}
	fx.submit(fx.keys[6], "gather", interp.RefV("Reg", fx.remote), interp.RefV("Reg", fx.remote))
	fx.runUntil("shard 0 parked", func() bool { watch(); return c.fenceSeq != 0 })
	for _, key := range fx.keys[7:] {
		fx.submit(key, "add", interp.IntV(1))
	}
	fx.runUntil("the updates logged behind the fence", func() bool {
		watch()
		end := fx.shard.RequestLog.End()
		return end-c.consumed >= int64(len(fx.keys[7:]))+1 // and the open marker
	})
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.shard.coordID, now, now+10*time.Millisecond)
	fx.runUntil("every call answered", func() bool { watch(); return len(fx.client.got) == fx.sent })
	if binding == 0 || parked == 0 || c.BindingEpochs < 2 || c.GlobalApplies != 1 {
		t.Fatalf("watched %d binding and %d parked steps, %d binding epochs, %d applies: a state was never reached",
			binding, parked, c.BindingEpochs, c.GlobalApplies)
	}
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("diverged from the serial run: %v", bad)
	}
}

// TestSelfClockTimerBoundsABusyBatch: updates arrive faster than one
// executes, so the open batch always has a member in flight and never
// closes itself. The epoch timer closes it at its own deadline — not at the
// tick still pending for the lone update that closed itself just before.
func TestSelfClockTimerBoundsABusyBatch(t *testing.T) {
	const gap = 200 * time.Microsecond
	fx := newBindingFixture(t, 16, 16)
	c := fx.shard.Coordinator()
	interval := fx.shard.cfg.EpochInterval
	fx.cluster.RunUntil(4*interval + interval/2)
	fx.call(fx.keys[0], "add", interp.IntV(1))
	epoch, deadline := int64(-1), time.Duration(0)
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("the busy batch never closed")
		}
		fx.submit(fx.keys[i%len(fx.keys)], "add", interp.IntV(1))
		fx.cluster.RunUntil(fx.cluster.Now() + gap)
		st := c.exec
		if epoch < 0 {
			epoch, deadline = st.epoch, st.closeAt
			continue
		}
		if st.epoch != epoch {
			t.Fatalf("epoch %d left the exec slot between two arrivals", epoch)
		}
		if st.phase == phaseOpen {
			continue
		}
		if st.phaseAt < deadline || st.phaseAt-deadline > 50*time.Microsecond || st.unfinished == 0 || len(st.txns) < 2 {
			t.Fatalf("batch of %d (%d unfinished) closed at %v, want its deadline %v", len(st.txns), st.unfinished, st.phaseAt, deadline)
		}
		break
	}
	fx.runUntil("every call answered", func() bool { return len(fx.client.got) == fx.sent })
	if bad := fx.diverged(); len(bad) > 0 {
		t.Fatalf("diverged from the serial run: %v", bad)
	}
}

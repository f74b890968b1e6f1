package stateflow

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The coordinator's one ack set, checked without seeds: each case runs a
// one-shard deployment of three workers that never hear from their
// coordinator — every message it sends a worker is recorded and dropped —
// feeds it the workers' answers by hand, and reads the wait in flight (the
// commit slot's apply or snapshot, or a recovery), the workers the set holds
// and what the coordinator sent.

// recFixture is a one-shard deployment of the registers whose coordinator
// talks to the test instead of its workers. Every epoch snapshots.
type recFixture struct {
	t       *testing.T
	cluster *sim.Cluster
	sys     *System
	c       *Coordinator
	sent    []string // what the coordinator sent the workers since the last took
	n       int      // requests submitted
}

func newRecFixture(t *testing.T) *recFixture {
	t.Helper()
	prog, err := compiler.Compile(registers)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Workers, cfg.SnapshotEvery = 3, 1
	cluster := sim.New(42)
	deployed := New(cluster, prog, cfg)
	fx := &recFixture{t: t, cluster: cluster, sys: deployed.Shards()[0]}
	fx.c = fx.sys.Coordinator()
	if err := deployed.PreloadEntity("Reg", interp.StrV("r0"), interp.IntV(0), interp.StrV("")); err != nil {
		t.Fatalf("preload: %v", err)
	}
	deployed.CheckpointPreloadedState()
	cluster.SetPerturb(func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		w := slices.Index(fx.sys.workerIDs, to)
		if from != fx.sys.coordID || w < 0 {
			return sim.Perturb{}
		}
		kind := strings.TrimPrefix(strings.TrimPrefix(fmt.Sprintf("%T", msg), "*"), "stateflow.msg")
		fx.sent = append(fx.sent, fmt.Sprintf("%s@%d", strings.ToLower(kind), w))
		return sim.Perturb{Drop: true}
	})
	cluster.Add("client", &rawClient{})
	cluster.Start()
	return fx
}

// run lets one millisecond pass: long enough for the coordinator to handle
// what was delivered, far shorter than its stall timeout and its recover
// retry.
func (fx *recFixture) run() { fx.cluster.RunUntil(fx.cluster.Now() + time.Millisecond) }

// deliver hands the coordinator msg from worker w.
func (fx *recFixture) deliver(w int, msg sim.Message) {
	fx.cluster.Inject(fx.cluster.Now(), fx.sys.workerIDs[w], fx.sys.coordID, msg)
	fx.run()
}

// took returns what the coordinator sent the workers since the last call,
// in send order.
func (fx *recFixture) took() string {
	out := strings.Join(fx.sent, " ")
	fx.sent = nil
	return out
}

// wait names the wait on every worker in flight: "apply" or "snapshot" of
// the commit slot, "recovery", or "none".
func (fx *recFixture) wait() string {
	switch st := fx.c.commit; {
	case fx.c.recovering:
		return "recovery"
	case st != nil && st.phase == phaseApply:
		return "apply"
	case st != nil && st.phase == phaseSnapshot:
		return "snapshot"
	}
	return "none"
}

// answered lists the workers the set holds, in worker order.
func (fx *recFixture) answered() []int {
	var out []int
	for w, id := range fx.sys.workerIDs {
		if fx.c.acks[id] {
			out = append(out, w)
		}
	}
	return out
}

// expect fails unless the wait in flight is wait, the set holds exactly the
// workers answered, and the coordinator sent exactly sent since the last
// check.
func (fx *recFixture) expect(what, wait string, answered []int, sent string) {
	fx.t.Helper()
	if got, set, took := fx.wait(), fx.answered(), fx.took(); got != wait || !slices.Equal(set, answered) || took != sent {
		fx.t.Fatalf("%s: wait %s holding %v, sent %q; want wait %s holding %v, sent %q",
			what, got, set, took, wait, answered, sent)
	}
}

// ignored delivers msg from worker w and fails unless it changed nothing:
// the wait, the set, the failure detector's progress and the sends.
func (fx *recFixture) ignored(what string, w int, msg sim.Message) {
	fx.t.Helper()
	wait, answered, progress := fx.wait(), fx.answered(), fx.c.progress
	fx.deliver(w, msg)
	fx.expect(what, wait, answered, "")
	if fx.c.progress != progress {
		fx.t.Fatalf("%s: progress %d → %d", what, progress, fx.c.progress)
	}
}

// applying submits one write and answers its execution by hand: the batch
// is decided and its apply waits on every worker.
func (fx *recFixture) applying() *epochState {
	fx.t.Helper()
	fx.n++
	ref := interp.EntityRef{Class: "Reg", Key: "r0"}
	fx.cluster.Inject(fx.cluster.Now(), "client", fx.sys.coordID, sysapi.MsgRequest{
		Request: sysapi.Request{Req: fmt.Sprintf("w%d", fx.n), Target: ref, Method: "add",
			Args: []interp.Value{interp.IntV(1)}},
		ReplyTo: "client",
	})
	fx.run()
	st, owner := fx.c.exec, fx.sys.OwnerIndex(ref)
	if st == nil || len(st.txns) != 1 {
		fx.t.Fatalf("the write is not the open batch's one member")
	}
	fx.deliver(owner, msgTxnFinished{&txnEvent{TID: st.first, Epoch: st.epoch, Value: interp.IntV(int64(fx.n))}})
	fx.expect("decided", "apply", nil, fmt.Sprintf("txnevent@%d decide@0 decide@1 decide@2", owner))
	return st
}

// applied is a worker's acknowledgement of the slot's apply.
func applied(st *epochState) sim.Message {
	return msgApplied{&msgDecide{Epoch: st.epoch, Round: st.round}}
}

// reboot crashes the coordinator for a millisecond and lets it come back:
// its recovery asks every worker to restore.
func (fx *recFixture) reboot() {
	fx.t.Helper()
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash(fx.sys.coordID, now, now+time.Millisecond)
	fx.cluster.RunUntil(now + 2*time.Millisecond)
	fx.expect("rebooted", "recovery", nil, "recover@0 recover@1 recover@2")
}

// recovered is a worker's acknowledgement of the recovery in progress.
func (fx *recFixture) recovered() sim.Message {
	return msgRecovered{SnapshotID: fx.c.snapshotID, Epoch: fx.c.epoch}
}

// TestRecoveryTableApplyThenSnapshot: the commit slot's apply and then its
// snapshot count their answers in the one set, each starting it over. A
// duplicate counts nothing in either phase; an apply ack that arrives late,
// in the snapshot phase, and a snapshot ack from an older snapshot are not
// answers to the wait in flight; the last answer of each phase moves the
// slot on, and the snapshot's seals it. The next batch's decide starts the
// set over again.
func TestRecoveryTableApplyThenSnapshot(t *testing.T) {
	fx := newRecFixture(t)
	st := fx.applying()
	fx.deliver(1, applied(st))
	fx.expect("worker 1 applied", "apply", []int{1}, "")
	fx.ignored("duplicate apply ack", 1, applied(st))

	fx.deliver(0, applied(st))
	fx.deliver(2, applied(st))
	id := fx.c.snapshotID
	fx.expect("every worker applied", "snapshot", nil, "takesnapshot@0 takesnapshot@1 takesnapshot@2")
	fx.ignored("late apply ack", 0, applied(st))
	fx.ignored("older snapshot's ack", 0, msgSnapshotDone{ID: id - 1})

	fx.deliver(2, msgSnapshotDone{ID: id})
	fx.expect("worker 2 snapshotted", "snapshot", []int{2}, "")
	fx.ignored("duplicate snapshot ack", 2, msgSnapshotDone{ID: id})
	fx.deliver(0, msgSnapshotDone{ID: id})
	fx.deliver(1, msgSnapshotDone{ID: id})
	fx.expect("every worker snapshotted", "none", []int{0, 1, 2}, "")
	if fx.c.sealed != id {
		t.Fatalf("sealed snapshot %d, want %d", fx.c.sealed, id)
	}
	fx.applying() // the next batch's apply starts the set over
}

// TestRecoveryTableRebootMidApply: a coordinator reboot while the apply
// holds some answers starts the recovery with the set empty, and an apply
// ack of the discarded epoch counts nothing.
func TestRecoveryTableRebootMidApply(t *testing.T) {
	fx := newRecFixture(t)
	st := fx.applying()
	fx.deliver(0, applied(st))
	fx.expect("worker 0 applied", "apply", []int{0}, "")
	fx.reboot()
	fx.ignored("discarded epoch's apply ack", 1, applied(st))
}

// TestRecoveryTableRestore: a recovery's restore counts each worker once
// and no answer to an earlier recovery of the same snapshot; its retry
// re-sends to the workers still missing, in worker order; its last answer
// ends the recovery.
func TestRecoveryTableRestore(t *testing.T) {
	fx := newRecFixture(t)
	fx.reboot()
	earlier := fx.recovered()
	for w := range fx.sys.workerIDs {
		fx.deliver(w, earlier)
	}
	fx.expect("first recovery answered", "none", []int{0, 1, 2}, "")

	fx.reboot()
	if m := fx.recovered().(msgRecovered); m.SnapshotID != earlier.(msgRecovered).SnapshotID {
		t.Fatalf("the recoveries restore snapshots %d and %d, want one", earlier.(msgRecovered).SnapshotID, m.SnapshotID)
	}
	fx.ignored("earlier recovery's ack", 1, earlier)
	fx.deliver(0, fx.recovered())
	fx.expect("worker 0 restored", "recovery", []int{0}, "")
	fx.ignored("duplicate restore ack", 0, fx.recovered())

	every := fx.c.recoverRetryEvery()
	fx.cluster.RunUntil(fx.c.recoverAt + every)
	fx.expect("first retry", "recovery", []int{0}, "recover@1 recover@2")
	fx.deliver(2, fx.recovered())
	fx.cluster.RunUntil(fx.c.recoverAt + 2*every)
	fx.expect("second retry", "recovery", []int{0, 2}, "recover@1")
	fx.deliver(1, fx.recovered())
	fx.expect("every worker restored", "none", []int{0, 1, 2}, "")
	if fx.c.RecoverRetries != 2 {
		t.Fatalf("%d recover retries, want 2", fx.c.RecoverRetries)
	}
}

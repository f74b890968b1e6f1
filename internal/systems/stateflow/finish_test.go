package stateflow

import (
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// TestFinishTravelsInItsEventsBody: a worker forwards a call chain's next
// event in the body of the one it stepped and answers in the body of the
// event that produced the root response, and a body keeps the (epoch, round,
// TID) it was sent with. One batch holds a transfer from acct(0) into acct(1),
// owned by two workers, a simple update of acct(1) and a fast read. The
// update reads what the transfer writes, so it conflict-aborts and the chain
// re-executes it: round 0 answers 101, round 1 answers 106. Every forwarded
// event and every finish must be the body of an event sent before it, with
// that event's TID and round; the transfer's deposit must travel in the very
// body the coordinator dispatched, and the transfer's and the update's
// round-0 finishes and the read's answer must be those bodies, which it
// holds inline. Then a copy of the update's round-0 finish is delivered to the
// coordinator right after the chain dispatches round 1. It still reads round
// 0, so it is stale and dropped, and the update is answered with round 1's
// value. Were round 1 dispatched in the inline body, the copy would read
// round 1 and answer the update with the dispatch's empty value.
func TestFinishTravelsInItsEventsBody(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochInterval = 50 * time.Millisecond
	update := sysapi.Request{Req: "u", Target: interp.EntityRef{Class: "Account", Key: acct(1)},
		Method: "update", Args: []interp.Value{interp.IntV(1)}, Kind: "update"}
	read := sysapi.Request{Req: "r", Target: interp.EntityRef{Class: "Account", Key: acct(2)},
		Method: "read", Kind: "read"}
	fx := newFixture(t, cfg, 3, []sysapi.Scheduled{
		{At: time.Millisecond, Req: transferReq("t", acct(0), acct(1), 5)},
		{At: time.Millisecond, Req: update},
		{At: time.Millisecond, Req: read},
	})
	c := fx.sys.coord

	type stamp struct {
		tid   aria.TID
		epoch int64
		round int
	}
	stampOf := func(b *txnEvent) stamp { return stamp{b.TID, b.Epoch, b.Round} }
	sent := map[*txnEvent]stamp{}          // every event body, as it was sent
	dispatched := map[stamp]*txnEvent{}    // the coordinator's dispatches and forwards
	finishes := map[stamp]msgTxnFinished{} // every finish, by the stamp it was sent with
	var roundZero msgTxnFinished           // the update's round-0 finish
	forwards := 0                          // events a worker forwarded
	var transfer stamp                     // the transfer's dispatch
	var replayed, stale bool
	fx.cluster.SetTap(func(from, to string, _, _ time.Duration, msg sim.Message) {
		switch m := msg.(type) {
		case msgTxnEvent:
			if s, ok := sent[m.txnEvent]; from != c.sys.coordID && (!ok || s != stampOf(m.txnEvent) || dispatched[s] != m.txnEvent) {
				t.Errorf("%s forwarded %+v in a body that is not its round's dispatch (sent %v as %+v)", from, *m.Ev, ok, s)
			}
			sent[m.txnEvent] = stampOf(m.txnEvent)
			if from != c.sys.coordID {
				forwards++
				return
			}
			dispatched[stampOf(m.txnEvent)] = m.txnEvent
			if m.Ev.Req == "t" {
				transfer = stampOf(m.txnEvent)
			}
			if m.Round == readRound {
				return
			}
			st := c.stageFor(m.Epoch)
			if inline := &st.txn(m.TID).first.txnEvent; m.Round == 0 && m.txnEvent != inline {
				t.Errorf("round 0 of TID %d was dispatched in a body of its own, not its record's", m.TID)
			} else if m.Round > 0 && m.txnEvent == inline {
				t.Errorf("round %d of TID %d was dispatched in the record's inline body", m.Round, m.TID)
			}
			if m.Round == 1 && m.Ev.Req == "u" && roundZero.txnEvent != nil && !replayed {
				replayed = true
				stale = roundZero.Round == 0
				fx.cluster.Inject(fx.cluster.Now(), to, c.sys.coordID, roundZero)
			}
		case msgTxnFinished:
			if replayed && m.txnEvent == roundZero.txnEvent {
				return // the copy this test delivers
			}
			s, ok := sent[m.txnEvent]
			if m.Round == readRound {
				s.epoch = m.Epoch // an answer reports the cut the read saw
			}
			if !ok || s != stampOf(m.txnEvent) || m.Ev != nil {
				t.Errorf("finish %+v is not the body of an event sent with its stamp (sent %v as %+v)", *m.txnEvent, ok, s)
			}
			finishes[stampOf(m.txnEvent)] = m
			if m.Round == 0 && m.Value.Repr() == "101" {
				roundZero = m
			}
		}
	})
	fx.cluster.RunUntil(5 * time.Second)

	if fx.client.Done != 3 {
		t.Fatalf("responses: %d/3", fx.client.Done)
	}
	if co := fx.sys.Coordinator(); co.EpochsClosed != 1 || co.FallbackChains != 1 || co.FastReads != 1 {
		t.Fatalf("epochs %d chains %d fast reads %d, want one chained epoch and one fast read",
			co.EpochsClosed, co.FallbackChains, co.FastReads)
	}
	if roundZero.txnEvent == nil || !replayed {
		t.Fatalf("the update never finished round 0 with 101 before its round-1 dispatch: %v", finishes)
	}
	if f, ok := finishes[transfer]; forwards == 0 || !ok || f.txnEvent != dispatched[transfer] {
		t.Errorf("the transfer's deposit was forwarded %d times, and its finish (%v) is not its dispatch's body", forwards, ok)
	}
	zero := stampOf(roundZero.txnEvent)
	if dispatched[zero] != roundZero.txnEvent {
		t.Error("the update's round-0 finish is not the body its dispatch sent")
	}
	if !stale || roundZero.Round != 0 || roundZero.Value.Repr() != "101" {
		t.Errorf("the round-0 finish changed after it was sent: round %d, value %s (round 0 when replayed: %v)",
			roundZero.Round, roundZero.Value.Repr(), stale)
	}
	one := zero
	one.round = 1
	if f, ok := finishes[one]; !ok || f.txnEvent == roundZero.txnEvent || dispatched[one] != f.txnEvent {
		t.Error("the update's round-1 finish is not the body of its own round-1 dispatch")
	}
	for s, f := range finishes {
		if s.round == readRound && dispatched[sent[f.txnEvent]] != f.txnEvent {
			t.Error("the read's answer is not the body its forward sent")
		}
	}
	for id, want := range map[string]string{"t": "True", "u": "106", "r": "100"} {
		if r := fx.client.Responses[id]; r.Err != "" || r.Value.Repr() != want {
			t.Errorf("%s answered %s (err %q), want %s", id, r.Value.Repr(), r.Err, want)
		}
	}
}

// TestForwardedHopAllocatesNothing: a round of a call chain is one object.
// The payer's owner steps a transfer's round-0 body, building the chain's
// context in it, and forwards the deposit in the same body; the payee's
// owner steps it there and answers in it. Once the workers' pools are warm
// (the epoch and the transaction's txnWork on each worker are open), the
// whole round allocates nothing: no hop, no context, no answer.
func TestForwardedHopAllocatesNothing(t *testing.T) {
	cluster, dep := deploy(t, bank, DefaultConfig(), func(preload func(class string, args ...interp.Value)) {
		for i := range 2 {
			preload("Account", interp.StrV(acct(i)), interp.IntV(1<<40))
		}
	})
	sys := dep.Single()
	payer, payee := interp.EntityRef{Class: "Account", Key: acct(0)}, interp.EntityRef{Class: "Account", Key: acct(1)}
	if sys.ownerOf(payer) == sys.ownerOf(payee) {
		t.Fatalf("scenario: %s and %s share their owner, so the deposit is no hop", payer.Key, payee.Key)
	}
	root := core.Event{Kind: core.EvInvoke, Req: "t", Target: payer, Method: "transfer",
		Args: []interp.Value{interp.IntV(1), interp.RefV(payee.Class, payee.Key)}}
	body := new(txnBody)
	var hops, answers int
	cluster.SetTap(func(from, to string, _, _ time.Duration, msg sim.Message) {
		switch m := msg.(type) {
		case msgTxnEvent:
			if from == sys.coordID {
				return // the dispatch this test injects
			}
			if m.txnEvent != &body.txnEvent || m.Ev != &body.ev || m.Ev.Ctx != &body.chain {
				t.Fatalf("%s forwarded the deposit in body %p carrying context %p, not in the body it stepped (%p)",
					from, m.txnEvent, m.Ev.Ctx, body)
			}
			hops++
		case msgTxnFinished:
			if m.txnEvent != &body.txnEvent || m.Ev != nil || m.Err != "" || m.Sets == nil || m.Sets.next == nil {
				t.Fatalf("%s answered %+v in body %p, want the round's body %p with both workers' sets", from, *m.txnEvent, m.txnEvent, body)
			}
			answers++
		}
	})
	round := func() {
		*body = txnBody{txnEvent: txnEvent{TID: 1}}
		body.ctx = &body.chain
		body.forward(root, nil)
		cluster.Inject(cluster.Now(), sys.coordID, sys.ownerOf(payer), msgTxnEvent{&body.txnEvent})
		if n := cluster.RunUntil(cluster.Now() + time.Hour); n > 10 {
			t.Fatalf("a round ran %d events, want a hop and an answer", n)
		}
	}
	round() // opens the epoch and the txnWorks
	hops, answers = 0, 0
	allocs := testing.AllocsPerRun(100, round) // 101 rounds, its warm-up included
	if hops != 101 || answers != 101 {
		t.Fatalf("scenario: %d hops and %d answers in 101 rounds, want one of each per round", hops, answers)
	}
	t.Logf("a transfer's round-0 round: %.0f allocations", allocs)
	if allocs != 0 {
		t.Errorf("a transfer's round-0 round allocated %.0f times with warm pools, want none: a hop, its context or its answer allocates", allocs)
	}
}

package stateflow

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// TestTransferFinishesAtThePayee: a transfer's `return True` reads no
// state, so it runs where the deposit returns. The root's round-0 finish
// leaves the payee's owner, carrying the payer's reservation set and the
// payee's, and the coordinator validates their union. Two transfers into
// one payee still conflict: the second aborts in round 0 and the chain
// commits it.
func TestTransferFinishesAtThePayee(t *testing.T) {
	cluster, sys := deploy(t, bank, DefaultConfig(), func(preload func(class string, args ...interp.Value)) {
		for i := 0; i < 10; i++ {
			preload("Account", interp.StrV(acct(i)), interp.IntV(100))
		}
	})
	client := &rawClient{}
	cluster.Add("client", client)
	cluster.Start()
	ref := func(i int) interp.EntityRef { return interp.EntityRef{Class: "Account", Key: acct(i)} }
	payee := sys.owner(ref(9)).id
	if sys.owner(ref(0)).id == payee || sys.owner(ref(1)).id == payee {
		t.Fatal("fixture: a payer shares the payee's worker; the sets would not travel")
	}
	type finish struct {
		from string
		keys []string
	}
	finishes := map[aria.TID]finish{}
	cluster.SetPerturb(func(from, _ string, _ time.Duration, msg sim.Message) sim.Perturb {
		if m, ok := msg.(msgTxnFinished); ok && m.Round == 0 {
			f := finish{from: from}
			for s := m.Sets; s != nil; s = s.next {
				for _, k := range s.rw.Keys(nil) {
					f.keys = append(f.keys, k.Key)
				}
			}
			slices.Sort(f.keys)
			finishes[m.TID] = f
		}
		return sim.Perturb{}
	})
	for i := 0; i < 2; i++ {
		cluster.Inject(time.Duration(i+1)*time.Millisecond, "client", sys.IngressID(), sysapi.MsgRequest{
			Request: transferReq(fmt.Sprintf("t%d", i+1), acct(i), acct(9), 5), ReplyTo: "client"})
	}
	cluster.RunUntil(time.Second)

	for i := 1; i <= 2; i++ {
		r, ok := answered(client, fmt.Sprintf("t%d", i))
		if !ok || r.Err != "" || !r.Value.B {
			t.Fatalf("t%d: %+v (answered %v)", i, r, ok)
		}
	}
	for tid, want := range map[aria.TID][]string{1: {acct(0), acct(9)}, 2: {acct(1), acct(9)}} {
		f := finishes[tid]
		if f.from != payee || !slices.Equal(f.keys, want) {
			t.Fatalf("transaction %d finished from %q reserving %v, want from the payee's owner %q reserving %v",
				tid, f.from, f.keys, payee, want)
		}
	}
	if c := sys.Single().Coordinator(); c.FallbackChains != 1 {
		t.Fatalf("FallbackChains = %d, want the one chain the conflict on the payee queues", c.FallbackChains)
	}
	for i, want := range map[int]int64{0: 95, 1: 95, 9: 110} {
		row, _ := sys.owner(ref(i)).committed.Lookup(ref(i))
		if bal := row.CloneMap()["balance"]; bal.I != want {
			t.Fatalf("%s balance %d, want %d", acct(i), bal.I, want)
		}
	}
}

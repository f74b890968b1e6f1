package aria

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
)

func cell(i int) interp.EntityRef { return interp.EntityRef{Class: "C", Key: fmt.Sprint(i)} }

// TestChainProperties drives random chains the way a worker does — a member
// runs on an entity only while it heads that entity's queue, and is released
// from wherever it stands once it has run where it wanted to — in a random
// admissible order, and checks what both users rely on: every member runs
// exactly once and is released exactly once, each entity sees its members in
// TID order, nobody is left waiting (the wait-for graph has no cycle), and a
// member's depth is the longest path of same-entity predecessors behind it.
func TestChainProperties(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, entities := 1+rng.Intn(40), 1+rng.Intn(12)
		tids := make([]TID, n)
		foots := make([][]interp.EntityRef, n)
		for i := range tids {
			tids[i] = TID(100 + 3*i) // ascending, not contiguous
			for k := 1 + rng.Intn(3); k > 0; k-- {
				foots[i] = append(foots[i], cell(rng.Intn(entities))) // repeats allowed
			}
		}
		budget := 0
		if rng.Intn(3) == 0 {
			budget = 1 + rng.Intn(6)
		}
		plan, spilled := PlanChain(tids, func(i int, buf []interp.EntityRef) []interp.EntityRef {
			return append(buf, foots[i]...)
		}, budget)

		// Depth, independently: longest path over "shares an entity with a
		// lower candidate", spilled candidates included.
		depth := make([]int, n)
		for i := range tids {
			depth[i] = 1
			for j := 0; j < i; j++ {
				if slices.ContainsFunc(foots[i], func(r interp.EntityRef) bool { return slices.Contains(foots[j], r) }) {
					depth[i] = max(depth[i], depth[j]+1)
				}
			}
		}
		var wantMembers, wantSpilled []TID
		deepest := 0
		for i, tid := range tids {
			if budget > 0 && depth[i] > budget {
				wantSpilled = append(wantSpilled, tid)
				continue
			}
			wantMembers = append(wantMembers, tid)
			deepest = max(deepest, depth[i])
		}
		if !slices.Equal(plan.Members, wantMembers) || !slices.Equal(spilled, wantSpilled) || plan.Depth != deepest {
			t.Fatalf("seed %d (budget %d): members %v spilled %v depth %d, want %v / %v / %d",
				seed, budget, plan.Members, spilled, plan.Depth, wantMembers, wantSpilled, deepest)
		}
		for m, tid := range plan.Members {
			i := slices.Index(tids, tid)
			if plan.DepthOf(m) != depth[i] {
				t.Fatalf("seed %d: member %d depth %d, want %d", seed, tid, plan.DepthOf(m), depth[i])
			}
			if got, ok := plan.Pos(tid); !ok || got != m {
				t.Fatalf("seed %d: Pos(%d) = %d, %v", seed, tid, got, ok)
			}
			for _, ref := range foots[i] {
				if e := plan.Entity(m, ref); e < 0 || plan.Refs[e] != ref {
					t.Fatalf("seed %d: member %d does not find %v in its footprint", seed, tid, ref)
				}
			}
		}
		if _, ok := plan.Pos(99); ok {
			t.Fatalf("seed %d: Pos found a TID that is no member", seed)
		}

		// Execution. Each member wants to run on a random non-empty subset of
		// its footprint (a refused transfer never visits its payee).
		ch := NewChain(plan)
		wants := make([][]int32, len(plan.Members))
		for m := range wants {
			foot := plan.Footprint(m)
			wants[m] = []int32{foot[rng.Intn(len(foot))]}
			for _, e := range foot {
				if rng.Intn(2) == 0 && !slices.Contains(wants[m], e) {
					wants[m] = append(wants[m], e)
				}
			}
		}
		ran := make([][]int, len(plan.Refs)) // per entity: members in run order
		runs := make([]int, len(plan.Members))
		left := len(plan.Members)
		for left > 0 {
			var runnable []int
			for m := range plan.Members {
				if len(wants[m]) > 0 && ch.Head(wants[m][0]) == m {
					runnable = append(runnable, m)
				}
			}
			if len(runnable) == 0 {
				t.Fatalf("seed %d: %d members left and none may run: the queues deadlocked", seed, left)
			}
			m := runnable[rng.Intn(len(runnable))]
			e := wants[m][0]
			wants[m] = wants[m][1:]
			ran[e] = append(ran[e], m)
			if len(wants[m]) > 0 {
				continue
			}
			runs[m]++
			if !ch.Release(m) || ch.Release(m) {
				t.Fatalf("seed %d: member %d: first release refused or second accepted", seed, m)
			}
			left--
		}
		for m, k := range runs {
			if k != 1 {
				t.Fatalf("seed %d: member %d finished %d times", seed, m, k)
			}
		}
		for e, order := range ran {
			if !slices.IsSorted(order) {
				t.Fatalf("seed %d: entity %v ran members %v: not TID order", seed, plan.Refs[e], order)
			}
			if ch.Head(int32(e)) != -1 {
				t.Fatalf("seed %d: entity %v still has a head after every release", seed, plan.Refs[e])
			}
		}
	}
}

// TestChainReadyIsTheSerialOrder is the coordinator's use: members finish in
// any order, and answering one only when it is Ready — then releasing it —
// yields an order in which every member follows all its same-entity
// predecessors: a serial order of the chain, whatever the finish order was.
func TestChainReadyIsTheSerialOrder(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		tids := make([]TID, n)
		foots := make([][]interp.EntityRef, n)
		for i := range tids {
			tids[i] = TID(i + 1)
			foots[i] = []interp.EntityRef{cell(rng.Intn(6)), cell(rng.Intn(6))}
		}
		plan, _ := PlanChain(tids, func(i int, buf []interp.EntityRef) []interp.EntityRef {
			return append(buf, foots[i]...)
		}, 0)
		ch := NewChain(plan)
		finished := make([]bool, n)
		var answered []int
		var answer func(m int)
		answer = func(m int) {
			if !finished[m] || !ch.Ready(m) {
				return
			}
			ch.Release(m)
			answered = append(answered, m)
			for _, e := range plan.Footprint(m) {
				if next := ch.Head(e); next >= 0 {
					answer(next)
				}
			}
		}
		for _, m := range rng.Perm(n) {
			finished[m] = true
			answer(m)
		}
		if len(answered) != n {
			t.Fatalf("seed %d: answered %d of %d members", seed, len(answered), n)
		}
		at := make([]int, n)
		for i, m := range answered {
			at[m] = i
		}
		for m := range tids {
			for p := 0; p < m; p++ {
				if at[p] > at[m] && slices.ContainsFunc(foots[m], func(r interp.EntityRef) bool { return slices.Contains(foots[p], r) }) {
					t.Fatalf("seed %d: member %d answered before its predecessor %d", seed, m, p)
				}
			}
		}
	}
}

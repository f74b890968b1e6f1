package aria

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/state"
)

// newWorkspace opens a workspace over the committed store.
func newWorkspace(committed *state.Store) *Workspace {
	ws := new(Workspace)
	ws.Open(committed)
	return ws
}

func ref(key string) interp.EntityRef { return interp.EntityRef{Class: "A", Key: key} }

// rkey is the reservation key of ref(key): class "A" has id 0.
func rkey(key string) ResKey { return ResKey{Class: 0, Key: key} }

// layoutA lays out class A; its slot 63 ("wide") is past the reservation
// bitmap.
var layoutA = func() *ir.ClassLayout {
	attrs := []string{"a", "b", "payload", "v", "w", "xs"}
	for len(attrs) < 63 {
		attrs = append(attrs, fmt.Sprintf("pad%02d", len(attrs)))
	}
	return ir.NewClassLayout("A", 0, append(attrs, "wide"))
}()

// newStore returns an empty committed store over class A's layout.
func newStore() *state.Store {
	return state.NewStore(&ir.Layouts{ByClass: map[string]*ir.ClassLayout{"A": layoutA}, ByID: []*ir.ClassLayout{layoutA}})
}

// slotOf is attr's slot in class A.
func slotOf(t *testing.T, attr string) int {
	t.Helper()
	slot, ok := layoutA.SlotOf(attr)
	if !ok {
		t.Fatalf("A has no attribute %s", attr)
	}
	return slot
}

func set(t *testing.T, st interp.State, attr string, v interp.Value) {
	t.Helper()
	st.SetSlot(slotOf(t, attr), v)
}

func setOf(reads, writes []string) *RWSet {
	rw := NewRWSet()
	for _, r := range reads {
		rw.Read(rkey(r), EntityBit)
	}
	for _, w := range writes {
		rw.Write(rkey(w), EntityBit)
	}
	return rw
}

func TestValidateNoConflicts(t *testing.T) {
	sets := map[TID]*RWSet{
		1: setOf([]string{"x"}, []string{"x"}),
		2: setOf([]string{"y"}, []string{"y"}),
	}
	if ab := Validate([]TID{1, 2}, sets); len(ab) != 0 {
		t.Fatalf("aborts: %v", ab)
	}
}

func TestValidateRAW(t *testing.T) {
	// t2 reads what t1 writes: RAW, t2 aborts.
	sets := map[TID]*RWSet{
		1: setOf(nil, []string{"x"}),
		2: setOf([]string{"x"}, []string{"y"}),
	}
	ab := Validate([]TID{1, 2}, sets)
	if len(ab) != 1 || ab[0] != 2 {
		t.Fatalf("aborts: %v", ab)
	}
}

func TestValidateWAW(t *testing.T) {
	// Both write x: lowest TID wins.
	sets := map[TID]*RWSet{
		1: setOf(nil, []string{"x"}),
		2: setOf(nil, []string{"x"}),
	}
	ab := Validate([]TID{1, 2}, sets)
	if len(ab) != 1 || ab[0] != 2 {
		t.Fatalf("aborts: %v", ab)
	}
}

func TestValidateWARCommits(t *testing.T) {
	// t1 reads x, t2 writes x: WAR does not abort (snapshot reads, §3).
	sets := map[TID]*RWSet{
		1: setOf([]string{"x"}, nil),
		2: setOf(nil, []string{"x"}),
	}
	if ab := Validate([]TID{1, 2}, sets); len(ab) != 0 {
		t.Fatalf("aborts: %v", ab)
	}
}

func TestValidateConservativeChain(t *testing.T) {
	// t2 conflicts with t1; t3 conflicts with t2 only. Aria's one-pass
	// rule still aborts t3 (reservations of aborted txns count).
	sets := map[TID]*RWSet{
		1: setOf(nil, []string{"x"}),
		2: setOf([]string{"x"}, []string{"y"}),
		3: setOf([]string{"y"}, nil),
	}
	ab := Validate([]TID{1, 2, 3}, sets)
	if len(ab) != 2 || ab[0] != 2 || ab[1] != 3 {
		t.Fatalf("aborts: %v", ab)
	}
}

// Disjoint slot bitmaps on the same entity must not conflict; overlapping
// ones must.
func TestValidateSlotGranularity(t *testing.T) {
	mk := func(readSlots, writeSlots []int) *RWSet {
		rw := NewRWSet()
		for _, s := range readSlots {
			rw.Read(rkey("x"), SlotBit(s))
		}
		for _, s := range writeSlots {
			rw.Write(rkey("x"), SlotBit(s))
		}
		return rw
	}
	// Disjoint attribute writes on the same entity both commit.
	sets := map[TID]*RWSet{
		1: mk(nil, []int{0}),
		2: mk([]int{1}, []int{1}),
	}
	if ab := Validate([]TID{1, 2}, sets); len(ab) != 0 {
		t.Fatalf("disjoint slots aborted: %v", ab)
	}
	// Reading a slot a lower TID wrote aborts.
	sets = map[TID]*RWSet{
		1: mk(nil, []int{0}),
		2: mk([]int{0}, []int{1}),
	}
	if ab := Validate([]TID{1, 2}, sets); len(ab) != 1 || ab[0] != 2 {
		t.Fatalf("overlapping slot read survived: %v", ab)
	}
	// The whole-entity bit conflicts with any slot write... of itself
	// only: EntityBit and slot bits are disjoint reservations.
	sets = map[TID]*RWSet{
		1: mk(nil, []int{64}), // overflow slot -> EntityBit
		2: mk([]int{62}, nil),
	}
	if ab := Validate([]TID{1, 2}, sets); len(ab) != 0 {
		t.Fatalf("overflow vs plain slot: %v", ab)
	}
}

func TestValidateLowestAlwaysCommitsProperty(t *testing.T) {
	// Whatever the conflict pattern, the lowest TID never aborts -> no
	// starvation under retry (retries get the lowest TIDs of the next
	// batch).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		order := make([]TID, n)
		sets := map[TID]*RWSet{}
		keys := []string{"a", "b", "c", "d"}
		for i := 0; i < n; i++ {
			tid := TID(i + 1)
			order[i] = tid
			rw := NewRWSet()
			for j := 0; j < 1+r.Intn(3); j++ {
				k := keys[r.Intn(len(keys))]
				b := SlotBit(r.Intn(4))
				if r.Intn(2) == 0 {
					rw.Read(rkey(k), b)
				} else {
					rw.Write(rkey(k), b)
				}
			}
			sets[tid] = rw
		}
		for _, ab := range Validate(order, sets) {
			if ab == order[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDeterministicProperty(t *testing.T) {
	prop := func(seed int64) bool {
		build := func() ([]TID, map[TID]*RWSet) {
			r := rand.New(rand.NewSource(seed))
			n := 2 + r.Intn(10)
			order := make([]TID, n)
			sets := map[TID]*RWSet{}
			for i := 0; i < n; i++ {
				tid := TID(i + 1)
				order[i] = tid
				rw := NewRWSet()
				rw.Write(rkey(string(rune('a'+r.Intn(4)))), SlotBit(r.Intn(3)))
				sets[tid] = rw
			}
			return order, sets
		}
		o1, s1 := build()
		o2, s2 := build()
		a1 := Validate(o1, s1)
		a2 := Validate(o2, s2)
		if len(a1) != len(a2) {
			return false
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateUnionIsTheOrOfOwners: on random batches whose reservations are
// split across key owners (workers), Validate over each transaction's union
// of sets aborts exactly the transactions that Validate over some owner's
// share aborts — the check is per key. That equality is what lets one check
// at the coordinator, over the sets the finishes shipped, stand in for a vote
// per worker; the Validator fed every share of a transaction before adding
// any agrees with both.
func TestValidateUnionIsTheOrOfOwners(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, owners := 1+r.Intn(12), 1+r.Intn(4)
		owner := func(k string) int { return int(k[0]) % owners }
		order := make([]TID, n)
		union := map[TID]*RWSet{}
		split := make([]map[TID]*RWSet, owners)
		for o := range split {
			split[o] = map[TID]*RWSet{}
		}
		for i := range order {
			tid := TID(i + 1)
			order[i] = tid
			for j := r.Intn(4); j > 0; j-- { // zero: the transaction reserved nothing
				k := keys[r.Intn(len(keys))]
				part := split[owner(k)][tid]
				if part == nil {
					part = NewRWSet()
					split[owner(k)][tid] = part
				}
				if union[tid] == nil {
					union[tid] = NewRWSet()
				}
				b := SlotBit(r.Intn(3))
				if r.Intn(8) == 0 {
					b = EntityBit
				}
				if r.Intn(2) == 0 {
					part.Read(rkey(k), b)
					union[tid].Read(rkey(k), b)
				} else {
					part.Write(rkey(k), b)
					union[tid].Write(rkey(k), b)
				}
			}
		}
		aborted := map[TID]bool{}
		for _, sets := range split {
			for _, tid := range Validate(order, sets) {
				aborted[tid] = true
			}
		}
		var v Validator
		var or, incremental []TID
		for _, tid := range order {
			if aborted[tid] {
				or = append(or, tid)
			}
			conflict := false
			for _, sets := range split {
				if rw := sets[tid]; rw != nil && v.Conflicts(rw) {
					conflict = true
				}
			}
			for _, sets := range split {
				if rw := sets[tid]; rw != nil {
					v.Add(rw)
				}
			}
			if conflict {
				incremental = append(incremental, tid)
			}
		}
		got := Validate(order, union)
		return slices.Equal(got, or) && slices.Equal(got, incremental)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestValidatorResetForgetsTheBatch reuses one Validator across batches, as
// the coordinator does, next to a fresh one per batch: after Reset nothing
// the previous batch wrote conflicts, whether its writes sat in the inline
// entries or past the index threshold, and what this batch wrote does.
func TestValidatorResetForgetsTheBatch(t *testing.T) {
	var reused Validator
	key := func(i int) ResKey { return rkey(fmt.Sprint("k", i)) }
	for _, n := range []int{1, 2, scanLimit + 4, 3, 0} {
		reused.Reset()
		var fresh Validator
		for i := 0; i < n; i++ {
			w := NewRWSet()
			w.Write(key(i), SlotBit(0))
			for _, v := range []*Validator{&reused, &fresh} {
				if v.Conflicts(w) {
					t.Fatalf("batch of %d: the first writer of k%d conflicts", n, i)
				}
				v.Add(w)
			}
		}
		for i := 0; i <= scanLimit+4; i++ {
			r := NewRWSet()
			r.Read(key(i), SlotBit(0))
			if got, want := reused.Conflicts(r), fresh.Conflicts(r); got != want || got != (i < n) {
				t.Fatalf("batch of %d: a read of k%d conflicts %v on the reused validator, %v on a fresh one", n, i, got, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fallback schedule

// chainSets builds the canonical conflict chain t1: k0→k1, t2: k1→k2, …
// (each transaction reads and writes both endpoints, like a transfer).
func chainSets(n int) ([]TID, map[TID]*RWSet) {
	order := make([]TID, n)
	sets := map[TID]*RWSet{}
	key := func(i int) string { return string(rune('a' + i)) }
	for i := 0; i < n; i++ {
		tid := TID(i + 1)
		order[i] = tid
		rw := NewRWSet()
		for _, k := range []string{key(i), key(i + 1)} {
			rw.Read(rkey(k), SlotBit(0))
			rw.Write(rkey(k), SlotBit(0))
		}
		sets[tid] = rw
	}
	return order, sets
}

// A pure conflict chain: standard validation commits only the head, and
// the fallback schedule must rescue every other member — one per round,
// in TID order (each depends on its predecessor).
func TestFallbackSchedulesWholeChain(t *testing.T) {
	order, sets := chainSets(6)
	sched := Fallback(order, sets)
	if commit := slices.Concat(sched.Rounds...); len(commit) != 5 {
		t.Fatalf("commit: %v", commit)
	}
	if len(sched.Rounds) != 5 {
		t.Fatalf("rounds: %v", sched.Rounds)
	}
	for i, round := range sched.Rounds {
		if len(round) != 1 || round[0] != TID(i+2) {
			t.Fatalf("round %d: %v (want [%d])", i, round, i+2)
		}
	}
}

// A fan (everyone conflicts with t1 only, pairwise disjoint): the whole
// aborted set is reorderable in a single concurrent round.
func TestFallbackFanIsOneRound(t *testing.T) {
	sets := map[TID]*RWSet{
		1: setOf(nil, []string{"a", "b", "c"}),
		2: setOf([]string{"a"}, []string{"x"}),
		3: setOf([]string{"b"}, []string{"y"}),
		4: setOf([]string{"c"}, []string{"z"}),
	}
	sched := Fallback([]TID{1, 2, 3, 4}, sets)
	if len(sched.Rounds) != 1 {
		t.Fatalf("rounds: %v", sched.Rounds)
	}
	if got := sched.Rounds[0]; len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("round 0: %v", got)
	}
}

// No conflicts, no schedule.
func TestFallbackEmptyWithoutConflicts(t *testing.T) {
	sets := map[TID]*RWSet{
		1: setOf([]string{"x"}, []string{"x"}),
		2: setOf([]string{"y"}, []string{"y"}),
	}
	if sched := Fallback([]TID{1, 2}, sets); len(sched.Rounds) != 0 {
		t.Fatalf("schedule not empty: %+v", sched)
	}
}

// Every conflict edge must order the higher TID into a later round than
// the lower; round members must be pairwise conflict-free; and the
// schedule must be a pure function of its inputs.
func TestFallbackScheduleProperties(t *testing.T) {
	prop := func(seed int64) bool {
		build := func() ([]TID, map[TID]*RWSet) {
			r := rand.New(rand.NewSource(seed))
			n := 3 + r.Intn(16)
			order := make([]TID, n)
			sets := map[TID]*RWSet{}
			keys := []string{"a", "b", "c", "d", "e"}
			for i := 0; i < n; i++ {
				tid := TID(i + 1)
				order[i] = tid
				rw := NewRWSet()
				for j := 0; j < 1+r.Intn(3); j++ {
					k := keys[r.Intn(len(keys))]
					b := SlotBit(r.Intn(3))
					if r.Intn(2) == 0 {
						rw.Read(rkey(k), b)
					} else {
						rw.Write(rkey(k), b)
					}
				}
				sets[tid] = rw
			}
			return order, sets
		}
		order, sets := build()
		sched := Fallback(order, sets)
		round := map[TID]int{}
		for r, members := range sched.Rounds {
			for i, tid := range members {
				round[tid] = r
				for _, peer := range members[:i] {
					if Conflicts(sets[peer], sets[tid]) {
						return false // round members must be disjoint
					}
				}
			}
		}
		for tid, r := range round {
			for peer, pr := range round {
				if peer < tid && Conflicts(sets[peer], sets[tid]) && pr >= r {
					return false // conflict edge must order the rounds
				}
			}
		}
		// Determinism: same inputs, same plan.
		order2, sets2 := build()
		sched2 := Fallback(order2, sets2)
		return slices.Equal(slices.Concat(sched.Rounds...), slices.Concat(sched2.Rounds...))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Conflicts must see all three dependency kinds and ignore read/read.
func TestConflicts(t *testing.T) {
	cases := []struct {
		name string
		a, b *RWSet
		want bool
	}{
		{"waw", setOf(nil, []string{"x"}), setOf(nil, []string{"x"}), true},
		{"raw", setOf(nil, []string{"x"}), setOf([]string{"x"}, nil), true},
		{"war", setOf([]string{"x"}, nil), setOf(nil, []string{"x"}), true},
		{"read-read", setOf([]string{"x"}, nil), setOf([]string{"x"}, nil), false},
		{"disjoint", setOf([]string{"x"}, []string{"x"}), setOf([]string{"y"}, []string{"y"}), false},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Errorf("%s: Conflicts = %v, want %v", c.name, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// Workspace

func get(t *testing.T, st interp.State, attr string) interp.Value {
	t.Helper()
	v, ok := st.GetSlot(slotOf(t, attr))
	if !ok {
		t.Fatalf("attr %s missing", attr)
	}
	return v
}

func TestWorkspaceReadsCommitted(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"v": interp.IntV(10)})
	ws := newWorkspace(committed)
	st, ok := ws.Lookup(ref("x"))
	if !ok {
		t.Fatal("lookup")
	}
	if v := get(t, st, "v"); v.I != 10 {
		t.Fatalf("get: %v", v)
	}
	if e := ws.RW.find(rkey("x")); e == nil || e.reads == 0 {
		t.Fatal("read not recorded")
	}
}

func TestWorkspaceWriteIsolation(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"v": interp.IntV(10)})
	ws := newWorkspace(committed)
	st, _ := ws.Lookup(ref("x"))
	set(t, st, "v", interp.IntV(99))
	// Own read sees own write.
	if v := get(t, st, "v"); v.I != 99 {
		t.Fatalf("own read: %v", v)
	}
	// Committed store untouched until Apply.
	base, _ := committed.Lookup(ref("x"))
	if get(t, base, "v").I != 10 {
		t.Fatalf("committed leaked")
	}
	if e := ws.RW.find(rkey("x")); e == nil || e.writes == 0 {
		t.Fatal("write not recorded")
	}
	ws.Apply(committed)
	base, _ = committed.Lookup(ref("x"))
	if get(t, base, "v").I != 99 {
		t.Fatalf("apply")
	}
}

// The interpreter appends to a list it read from state in place and only
// then re-stores it. A workspace that is dropped (aborted, or a void
// reconnaissance attempt) must leave the committed list as it was, and a
// read-only private copy must count as neither a write nor write bytes.
func TestWorkspaceContainerReadIsPrivate(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"xs": interp.ListV(interp.IntV(1))})
	before := append([]byte(nil), committed.Encode()...)

	ws := newWorkspace(committed)
	st, _ := ws.Lookup(ref("x"))
	v, _ := st.GetSlot(slotOf(t, "xs"))
	v.L.Elems = append(v.L.Elems, interp.IntV(2))
	ws.Written(func(interp.EntityRef, bool) { t.Fatal("a read counted as a write") })
	if ws.WriteBytes() != 0 {
		t.Fatal("a read counted toward write bytes")
	}
	set(t, st, "xs", v) // touchStateAttr
	if !bytes.Equal(committed.Encode(), before) {
		t.Fatal("in-place append reached the committed store before Apply")
	}

	ws = newWorkspace(committed) // the retry starts from the untouched image
	st, _ = ws.Lookup(ref("x"))
	v = get(t, st, "xs")
	if len(v.L.Elems) != 1 {
		t.Fatalf("retry sees the dropped attempt's append: %s", v.Repr())
	}
	v.L.Elems = append(v.L.Elems, interp.IntV(3))
	set(t, st, "xs", v)
	ws.Apply(committed)
	base, _ := committed.Lookup(ref("x"))
	if got := get(t, base, "xs").Repr(); got != "[1, 3]" {
		t.Fatalf("after apply: %s", got)
	}
}

func TestWorkspaceCopyOnWritePreservesOtherAttrs(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"a": interp.IntV(1), "b": interp.IntV(2)})
	ws := newWorkspace(committed)
	st, _ := ws.Lookup(ref("x"))
	set(t, st, "a", interp.IntV(100))
	ws.Apply(committed)
	base, _ := committed.Lookup(ref("x"))
	if get(t, base, "a").I != 100 || get(t, base, "b").I != 2 {
		t.Fatalf("after apply: %v", base)
	}
}

// Two workspaces writing disjoint layout slots of the same entity must
// both survive: slot-granular validation passes both and merge-apply
// keeps both writes.
func TestDisjointSlotWritesMerge(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"a": interp.IntV(1), "b": interp.IntV(2)})
	w1 := newWorkspace(committed)
	w2 := newWorkspace(committed)
	s1, _ := w1.Lookup(ref("x"))
	s2, _ := w2.Lookup(ref("x"))
	set(t, s1, "a", interp.IntV(100))
	set(t, s2, "b", interp.IntV(200))
	order := []TID{1, 2}
	sets := map[TID]*RWSet{1: &w1.RW, 2: &w2.RW}
	if ab := Validate(order, sets); len(ab) != 0 {
		t.Fatalf("disjoint attr writes aborted: %v", ab)
	}
	w1.Apply(committed)
	w2.Apply(committed)
	base, _ := committed.Lookup(ref("x"))
	if get(t, base, "a").I != 100 || get(t, base, "b").I != 200 {
		t.Fatalf("merge lost a write: %v", base.CloneMap())
	}
}

// A write that forces a whole-row install on apply (a slot past the
// reservation bitmap) must reserve the entire entity: otherwise it would
// pass validation against a lower-TID slot write and then revert it when
// the full row is installed.
func TestWholeRowInstallConflictsWithSlotWrites(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"a": interp.IntV(1), "b": interp.IntV(2)})
	w1 := newWorkspace(committed)
	w2 := newWorkspace(committed)
	s1, _ := w1.Lookup(ref("x"))
	s2, _ := w2.Lookup(ref("x"))
	set(t, s1, "a", interp.IntV(100))  // slot write
	set(t, s2, "wide", interp.IntV(9)) // slot 63 -> whole-row install
	aborts := Validate([]TID{1, 2}, map[TID]*RWSet{1: &w1.RW, 2: &w2.RW})
	if len(aborts) != 1 || aborts[0] != 2 {
		t.Fatalf("whole-row installer must abort against lower slot write: %v", aborts)
	}
	// Applying only the survivor keeps the slot write.
	w1.Apply(committed)
	base, _ := committed.Lookup(ref("x"))
	if get(t, base, "a").I != 100 {
		t.Fatal("slot write lost")
	}
}

func TestWorkspaceCreate(t *testing.T) {
	committed := newStore()
	ws := newWorkspace(committed)
	if err := ws.Create(ref("new"), func(st interp.State) error {
		set(t, st, "v", interp.IntV(5))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Visible inside the workspace.
	if _, ok := ws.Lookup(ref("new")); !ok {
		t.Fatal("created entity invisible in workspace")
	}
	// Invisible outside until apply.
	if committed.Exists(ref("new")) {
		t.Fatal("created entity leaked")
	}
	ws.Apply(committed)
	if !committed.Exists(ref("new")) {
		t.Fatal("create not applied")
	}
}

// noCtor is a constructor that writes nothing.
func noCtor(interp.State) error { return nil }

func TestWorkspaceCreateDuplicate(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{})
	ws := newWorkspace(committed)
	if err := ws.Create(ref("x"), noCtor); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if err := ws.Create(ref("y"), noCtor); err != nil {
		t.Fatal(err)
	}
	if err := ws.Create(ref("y"), noCtor); err == nil {
		t.Fatal("duplicate create inside workspace must fail")
	}
}

func TestWorkspaceLookupMissing(t *testing.T) {
	ws := newWorkspace(newStore())
	if _, ok := ws.Lookup(ref("ghost")); ok {
		t.Fatal("missing entity must not resolve")
	}
}

func TestTwoWorkspacesAreIsolated(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"v": interp.IntV(0)})
	w1 := newWorkspace(committed)
	w2 := newWorkspace(committed)
	s1, _ := w1.Lookup(ref("x"))
	s2, _ := w2.Lookup(ref("x"))
	set(t, s1, "v", interp.IntV(1))
	if v := get(t, s2, "v"); v.I != 0 {
		t.Fatalf("w2 saw w1's write: %v", v)
	}
}

func TestWriteBytesAndTouched(t *testing.T) {
	committed := newStore()
	ws := newWorkspace(committed)
	if ws.WriteBytes() != 0 {
		t.Fatal("empty workspace bytes")
	}
	_ = ws.Create(ref("a"), func(st interp.State) error {
		set(t, st, "payload", interp.StrV(string(make([]byte, 1000))))
		return nil
	})
	if ws.WriteBytes() < 1000 {
		t.Fatalf("write bytes: %d", ws.WriteBytes())
	}
	if touched := ws.RW.Keys(nil); len(touched) != 1 || touched[0] != rkey("a") {
		t.Fatalf("touched: %v", touched)
	}
}

package aria

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/state"
)

// TestAllocsPerWorkspaceWrite pins the workspace's write path at zero heap
// allocations: a transaction that looks an entity up, reads a scalar, writes
// it back, is priced and applied allocates nothing beyond the workspace
// itself — the written value is buffered inside the entry, not in a copy of
// the committed row.
func TestAllocsPerWorkspaceWrite(t *testing.T) {
	committed := newStore()
	committed.PutMap(ref("x"), interp.MapState{"v": interp.IntV(1), "payload": interp.StrV(strings.Repeat("p", 100))})
	v := slotOf(t, "v")
	var ws Workspace
	allocs := testing.AllocsPerRun(100, func() {
		ws.Open(1, committed)
		st, ok := ws.Lookup(ref("x"))
		if !ok {
			panic("lookup")
		}
		cur, _ := st.GetSlot(v)
		st.SetSlot(v, interp.IntV(cur.I+1))
		if ws.WriteBytes() == 0 {
			panic("no write bytes")
		}
		ws.Apply(committed)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per workspace write, want 0", allocs)
	}
}

// TestWriteBytesMatchesInstalledRows: the cost model charges a commit by
// WriteBytes, so it must equal the encoded size of exactly the rows Apply
// installs — computed here by applying into a copy of the committed store
// and measuring what landed there.
func TestWriteBytesMatchesInstalledRows(t *testing.T) {
	slot := func(attr string) int { return slotOf(t, attr) }
	scalar := func(rng *rand.Rand) interp.Value {
		if rng.Intn(2) == 0 {
			return interp.IntV(rng.Int63n(1 << uint(rng.Intn(60))))
		}
		return interp.StrV(strings.Repeat("s", rng.Intn(300)))
	}
	existing := func(rng *rand.Rand, ws *Workspace) (interp.EntityRef, interp.State) {
		r := ref(fmt.Sprintf("e%d", rng.Intn(3)))
		st, ok := ws.Lookup(r)
		if !ok {
			t.Fatalf("lookup %s", r)
		}
		return r, st
	}
	// An op runs one access of a transaction and marks what it wrote.
	type op func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool)
	writeScalar := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r, st := existing(rng, ws)
		st.SetSlot(slot([]string{"a", "b", "v", "payload"}[rng.Intn(4)]), scalar(rng))
		written[r] = true
	}
	rewrite := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r, st := existing(rng, ws)
		for i := 0; i < 3; i++ {
			st.SetSlot(slot("v"), scalar(rng))
		}
		written[r] = true
	}
	writeWide := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r, st := existing(rng, ws)
		st.SetSlot(slot("wide"), scalar(rng))
		written[r] = true
	}
	appendList := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r, st := existing(rng, ws)
		xs, ok := st.GetSlot(slot("xs"))
		if !ok {
			xs = interp.ListV()
		}
		xs.L.Elems = append(xs.L.Elems, scalar(rng))
		st.SetSlot(slot("xs"), xs) // touchStateAttr
		written[r] = true
	}
	putDict := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r, st := existing(rng, ws)
		d, ok := st.GetSlot(slot("w"))
		if !ok || d.Kind != interp.KDict {
			d = interp.DictV()
		}
		if err := d.DictSet(interp.IntV(rng.Int63n(4)), scalar(rng)); err != nil {
			t.Fatal(err)
		}
		st.SetSlot(slot("w"), d)
		written[r] = true
	}
	readContainers := func(rng *rand.Rand, ws *Workspace, _ map[interp.EntityRef]bool) {
		_, st := existing(rng, ws)
		st.GetSlot(slot("xs"))
		st.GetSlot(slot("w"))
	}
	created := 0
	create := func(rng *rand.Rand, ws *Workspace, written map[interp.EntityRef]bool) {
		r := ref(fmt.Sprintf("n%d", created))
		created++
		if err := ws.Create(r, func(st interp.State) error {
			for _, attr := range []string{"a", "payload", "xs", "wide"}[:rng.Intn(5)] {
				v := scalar(rng)
				if attr == "xs" {
					v = interp.ListV(v)
				}
				st.SetSlot(slot(attr), v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		written[r] = true
	}
	all := []op{writeScalar, rewrite, writeWide, appendList, putDict, readContainers, create}
	cases := []struct {
		name string
		ops  []op
	}{
		{"existing scalar", []op{writeScalar}},
		{"created", []op{create}},
		{"containers", []op{appendList, putDict}},
		{"wide slot", []op{writeWide, writeScalar}},
		{"repeated writes", []op{rewrite}},
		{"containers only read", []op{readContainers, writeScalar}},
		{"mixed", all},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			committed := newStore()
			for i := 0; i < 3; i++ {
				st := interp.MapState{"a": scalar(rng), "payload": scalar(rng)}
				if rng.Intn(2) == 0 {
					st["xs"] = interp.ListV(scalar(rng), scalar(rng))
				}
				if rng.Intn(2) == 0 {
					d := interp.DictV()
					d.DictSet(interp.StrV("k"), scalar(rng))
					st["w"] = d
				}
				if rng.Intn(4) == 0 {
					st["wide"] = scalar(rng)
				}
				committed.PutMap(ref(fmt.Sprintf("e%d", i)), st)
			}
			ws := newWorkspace(1, committed)
			written := map[interp.EntityRef]bool{}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				c.ops[rng.Intn(len(c.ops))](rng, ws, written)
			}
			dst, err := state.DecodeStore(committed.Encode(), committed.Layouts())
			if err != nil {
				t.Fatal(err)
			}
			ws.Apply(dst)
			want := 0
			for r := range written {
				row, ok := dst.Lookup(r)
				if !ok {
					t.Fatalf("%s seed %d: %s was written but not installed", c.name, seed, r)
				}
				want += row.EncodedSize()
			}
			if got := ws.WriteBytes(); got != want {
				t.Fatalf("%s seed %d: WriteBytes = %d, the installed rows encode to %d bytes", c.name, seed, got, want)
			}
		}
	}
}

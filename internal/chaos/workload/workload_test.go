package workload_test

import (
	"reflect"
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/lin"
)

func TestFromSeedDeterministic(t *testing.T) {
	for _, p := range []workload.Profile{workload.HotKey, workload.DataDep} {
		a := workload.FromSeed(p, 42).Static()
		b := workload.FromSeed(p, 42).Static()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different ops", p)
		}
		c := workload.FromSeed(p, 43).Static()
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical ops", p)
		}
	}
	a := workload.FromSeed(workload.Chain, 7).Starts()
	b := workload.FromSeed(workload.Chain, 7).Starts()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chain starts not deterministic")
	}
}

// run executes a spec synchronously on the Local runtime and returns the
// checker history. Sequential execution on a serial runtime must always
// produce a clean history — this is the workload/decoder smoke test.
func run(t *testing.T, spec workload.Spec) *lin.History {
	t.Helper()
	prog := stateflow.MustCompile(workload.Program())
	client := stateflow.NewLocalClient(prog)
	if err := spec.Preload(client.Admin()); err != nil {
		t.Fatalf("preload: %v", err)
	}
	h := &lin.History{Initial: spec.Initial()}
	exec := func(op workload.Op) (ok bool) {
		h.Invokes = append(h.Invokes, op.Invoke())
		res, err := client.Entity(workload.Class, op.Key).Call(op.Method, op.Args()...)
		if err != nil {
			t.Fatalf("op %s: transport error: %v", op.ID, err)
		}
		if res.Err != "" {
			h.Outcomes = append(h.Outcomes, lin.Outcome{ID: op.ID, Err: res.Err})
			return false
		}
		obs, err := workload.Decode(op, res.Value)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		h.Outcomes = append(h.Outcomes, lin.Outcome{ID: op.ID, Obs: obs})
		return true
	}

	if spec.Profile == workload.Chain {
		for _, start := range spec.Starts() {
			op := start
			for {
				ok := exec(op)
				var obs []lin.Observation
				if ok {
					obs = h.Outcomes[len(h.Outcomes)-1].Obs
				}
				next, more := spec.Next(op, obs, !ok)
				if !more {
					break
				}
				op = next
			}
		}
	} else {
		for _, op := range spec.Static() {
			exec(op)
		}
	}

	h.Final = map[lin.Entity]lin.State{}
	admin := client.Admin()
	for ent := range h.Initial {
		st, ok := admin.Inspect(ent.Class, ent.Key)
		if !ok {
			t.Fatalf("entity %s missing after run", ent)
		}
		h.Final[ent] = lin.State{Version: st["version"].I, Value: st["value"].I, Last: st["last"].Str()}
	}
	return h
}

func TestProfilesCleanOnSerialRuntime(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(string(p), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				spec := workload.FromSeed(p, seed)
				h := run(t, spec)
				if len(h.Outcomes) == 0 {
					t.Fatal("no outcomes recorded")
				}
				if err := lin.Check(h, spec.Conservation()); err != nil {
					t.Fatalf("seed %d: clean serial run rejected: %v", seed, err)
				}
			}
		})
	}
}

// TestDataDepFootprintsDiverge pins the property DataDep exists for: the
// observed write target of at least one route op differs across seeds,
// i.e. reads decide the write set.
func TestDataDepFootprintsDiverge(t *testing.T) {
	targets := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		spec := workload.FromSeed(workload.DataDep, seed)
		h := run(t, spec)
		for i := range h.Outcomes {
			out := &h.Outcomes[i]
			for _, o := range out.Obs {
				if o.Wrote && o.Delta > 0 {
					targets[o.Entity.Key] = true
				}
			}
		}
	}
	if len(targets) < 2 {
		t.Fatalf("route traffic never diversified its write set: %v", targets)
	}
}

// TestProfilesCoverStaticAndObservedFootprints pins what keeps both ways a
// member of StateFlow's fallback chain gets its footprint under the
// adversarial oracles: get, bump and move are ref-closed, so they queue on
// what their request names; route's candidates sit inside a list argument,
// so it queues on what its first execution observed — and can drift.
func TestProfilesCoverStaticAndObservedFootprints(t *testing.T) {
	prog := stateflow.MustCompile(workload.Program())
	for method, static := range map[string]bool{"get": true, "bump": true, "move": true, "route": false} {
		if got := prog.RefClosed(workload.Class, method); got != static {
			t.Errorf("%s.%s: ref-closed = %v, want %v", workload.Class, method, got, static)
		}
	}
	route := workload.Op{ID: "x", Method: "route", Key: "c00", D: 1, A: "c01", B: "c02"}
	for _, a := range route.Args() {
		if a.Kind == interp.KRef {
			t.Errorf("route passes %s as an entity-ref argument: its request would name its footprint", a.Repr())
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	op := workload.Op{ID: "x", Method: "bump", Key: "c00", D: 1}
	if _, err := workload.Decode(op, stateflow.Str("garbage")); err == nil {
		t.Fatal("malformed observation accepted")
	}
	if _, err := workload.Decode(op, stateflow.Str("c00|1|2|w&c01|1|2|w")); err == nil {
		t.Fatal("wrong part count accepted")
	}
	mv := workload.Op{ID: "x", Method: "route", Key: "c00", D: 1, A: "c01", B: "c02"}
	if _, err := workload.Decode(mv, stateflow.Str("c00|1|2|w&c09|1|2|w")); err == nil {
		t.Fatal("route writing an undeclared target accepted")
	}
}

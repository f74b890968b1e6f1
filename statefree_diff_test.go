// Differential test of in-place continuations: every program runs one
// seeded workload twice on each runtime — compiled as usual, and with every
// ir.Block.StateFree cleared on a second compile, so each resume travels
// back to its caller's operator as it did before the flag existed. Running
// a continuation that reads no state where its call returned must change
// nothing but the route: responses and the canonical encoding of every
// entity's final state are byte-identical.
package stateflow_test

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow"
)

// inPlaceSource adds what the other programs lack: a two-level chain
// A → B → C whose two continuations both run where C returns, and an
// in-place continuation that fails (`10 // n` with n = 0 while the cell is
// even) after its transaction has written its root.
const inPlaceSource = `
@entity
class Cell:
    def __init__(self, name: str):
        self.name: str = name
        self.n: int = 0

    def __key__(self) -> str:
        return self.name

    def bump(self, d: int) -> int:
        self.n += d
        return self.n

    def parity(self) -> int:
        return self.n % 2

@entity
class Relay:
    def __init__(self, name: str):
        self.name: str = name

    def __key__(self) -> str:
        return self.name

    def via(self, c: Cell, d: int) -> int:
        v: int = c.bump(d)
        return v * 2

    def ratio(self, c: Cell) -> int:
        n: int = c.parity()
        return 10 // n

@entity
class Root:
    def __init__(self, name: str):
        self.name: str = name
        self.calls: int = 0

    def __key__(self) -> str:
        return self.name

    @transactional
    def chain(self, r: Relay, c: Cell, d: int) -> int:
        self.calls += 1
        v: int = r.via(c, d)
        return v + 1

    @transactional
    def divide(self, r: Relay, c: Cell) -> int:
        self.calls += 1
        return r.ratio(c)
`

// withoutStateFree compiles src with every StateFree flag cleared.
func withoutStateFree(src string) *stateflow.Program {
	prog := stateflow.MustCompile(src)
	for _, op := range prog.Operators {
		for _, m := range op.Methods {
			for _, b := range m.Blocks {
				b.StateFree = false
			}
		}
	}
	return prog
}

func TestStateFreeResumesDifferential(t *testing.T) {
	programs := diffPrograms(t)
	programs["inplace"] = inPlaceSource
	for name, src := range programs {
		set, cleared := stateflow.MustCompile(src), withoutStateFree(src)
		steps, _ := workload(set, 5, 4, 60)
		if len(steps) == 0 {
			t.Fatalf("%s: workload generated no steps", name)
		}
		t.Run(name+"/hops", func(t *testing.T) {
			// Not vacuous: on the Local runtime, whose Hops count every
			// transfer, a program with in-place blocks takes fewer.
			hops := func(prog *stateflow.Program) int {
				rt, n := stateflow.NewLocal(prog), 0
				for _, s := range steps {
					res, err := rt.Invoke(s.class, s.key, s.method, s.args...)
					if err != nil {
						t.Fatalf("invoke %s.%s: %v", s.class, s.method, err)
					}
					n += res.Hops
				}
				return n
			}
			hSet, hCleared := hops(set), hops(cleared)
			if set.Stats().InPlaceBlocks > 0 && hSet >= hCleared {
				t.Fatalf("%d hops with in-place continuations, %d without: nothing ran in place", hSet, hCleared)
			}
			t.Logf("%d in-place blocks: %d hops → %d", set.Stats().InPlaceBlocks, hCleared, hSet)
		})
		legs := []struct {
			name   string
			client func(*stateflow.Program) stateflow.Client
		}{
			{"local", func(p *stateflow.Program) stateflow.Client { return stateflow.NewLocalClient(p) }},
			{"stateflow", func(p *stateflow.Program) stateflow.Client {
				return stateflow.NewSimulation(p, stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7}).Client()
			}},
			{"stateflow-4shards", func(p *stateflow.Program) stateflow.Client {
				return stateflow.NewSimulation(p, stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7, Shards: 4}).Client()
			}},
			{"statefun", func(p *stateflow.Program) stateflow.Client {
				return stateflow.NewSimulation(p, stateflow.SimConfig{Backend: stateflow.BackendStateFun, Seed: 7}).Client()
			}},
		}
		for _, leg := range legs {
			t.Run(name+"/"+leg.name, func(t *testing.T) {
				tRef, sRef := transcript(t, cleared, leg.client(cleared), steps)
				tGot, sGot := transcript(t, set, leg.client(set), steps)
				compareRuns(t, name+"/"+leg.name, tRef, tGot, sRef, sGot)
				if name != "inplace" {
					return
				}
				all := strings.Join(tGot, "\n")
				for _, want := range []string{".chain -> ", ".divide -> ", "division by zero"} {
					if !strings.Contains(all, want) {
						t.Fatalf("the workload never produced %q, so a leg of the in-place program is vacuous:\n%s", want, all)
					}
				}
			})
		}
	}
}

// TestStateFreeChainElidesBothResumes pins the two-level case on the Local
// runtime: Root.chain calls Relay.via, which calls Cell.bump; both
// continuations read no state, so the value Cell returns completes Relay's
// frame and then Root's in Cell's event — two invokes, no resume.
func TestStateFreeChainElidesBothResumes(t *testing.T) {
	for _, tc := range []struct {
		prog             *stateflow.Program
		hops, divideHops int
	}{
		{stateflow.MustCompile(inPlaceSource), 2, 2},
		{withoutStateFree(inPlaceSource), 4, 3},
	} {
		rt := stateflow.NewLocal(tc.prog)
		for _, c := range []struct{ class, key string }{{"Root", "a"}, {"Relay", "b"}, {"Cell", "c"}} {
			if _, err := rt.Create(c.class, stateflow.Str(c.key)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := rt.Invoke("Root", "a", "chain", stateflow.Ref("Relay", "b"), stateflow.Ref("Cell", "c"), stateflow.Int(3))
		if err != nil || res.Err != "" || res.Value.I != 7 {
			t.Fatalf("chain: %v %+v, want 7", err, res)
		}
		if res.Hops != tc.hops {
			t.Fatalf("chain took %d hops, want %d", res.Hops, tc.hops)
		}
		// Relay.ratio's in-place `10 // n` fails in Cell's event; the error
		// unwinds the whole context to the client.
		if _, err := rt.Create("Cell", stateflow.Str("z")); err != nil {
			t.Fatal(err)
		}
		res, err = rt.Invoke("Root", "a", "divide", stateflow.Ref("Relay", "b"), stateflow.Ref("Cell", "z"))
		if err != nil || !strings.Contains(res.Err, "division by zero") || res.Hops != tc.divideHops {
			t.Fatalf("divide by zero: %v %+v, want the error after %d hops", err, res, tc.divideHops)
		}
	}
}

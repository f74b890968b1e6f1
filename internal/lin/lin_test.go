package lin

import (
	"strings"
	"testing"
)

var cell = Entity{Class: "Cell", Key: "a"}

// good returns a clean three-op history on one entity: w1 bumps 0→1,
// w2 bumps 1→2, r reads version 2.
func good() *History {
	return &History{
		Invokes: []Op{{ID: "w1", Method: "bump"}, {ID: "w2", Method: "bump"}, {ID: "r", Method: "get"}},
		Outcomes: []Outcome{
			{ID: "w1", Obs: []Observation{{Entity: cell, Pre: State{0, 100, ""}, Wrote: true, Delta: 5}}},
			{ID: "w2", Obs: []Observation{{Entity: cell, Pre: State{1, 105, "w1"}, Wrote: true, Delta: 7}}},
			{ID: "r", Obs: []Observation{{Entity: cell, Pre: State{2, 112, "w2"}}}},
		},
		Initial: map[Entity]State{cell: {0, 100, ""}},
	}
}

func TestCleanHistoryPasses(t *testing.T) {
	h := good()
	if err := Check(h); err != nil {
		t.Fatalf("graph mode rejected a clean history: %v", err)
	}
	h.Serial = map[string]int64{"w1": 1, "w2": 2, "r": 3}
	h.Final = map[Entity]State{cell: {2, 112, "w2"}}
	if err := Check(h); err != nil {
		t.Fatalf("serial mode rejected a clean history: %v", err)
	}
}

// expect runs Check and asserts it rejects with the given kind and that
// the counterexample printout names every op in wantOps.
func expect(t *testing.T, h *History, kind string, wantOps ...string) {
	t.Helper()
	err := Check(h)
	if err == nil {
		t.Fatalf("checker accepted a known-bad history (wanted %s)", kind)
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error is not a *Violation: %v", err)
	}
	if v.Kind != kind {
		t.Fatalf("got kind %q, want %q (%v)", v.Kind, kind, v)
	}
	msg := v.Error()
	for _, op := range wantOps {
		if !strings.Contains(msg, op) {
			t.Fatalf("counterexample %q does not name op %q", msg, op)
		}
	}
	t.Logf("counterexample: %s", msg)
}

func TestLostUpdate(t *testing.T) {
	h := good()
	// w2's update is lost: both writers observed version 0.
	h.Outcomes[1].Obs[0].Pre = State{0, 100, ""}
	h.Outcomes[2].Obs[0].Pre = State{1, 107, "w2"}
	expect(t, h, "lost-update", "w1", "w2")
}

func TestStaleRead(t *testing.T) {
	h := good()
	// r reads version 1 with a value that never existed at version 1.
	h.Outcomes[2].Obs[0].Pre = State{1, 999, "w1"}
	expect(t, h, "stale-read", "r")

	h = good()
	// r reads a version no committed writer installed.
	h.Outcomes[2].Obs[0].Pre = State{7, 112, "w2"}
	expect(t, h, "stale-read", "r")

	h = good()
	// r reads a (version, writer) pair that never existed.
	h.Outcomes[2].Obs[0].Pre = State{2, 112, "ghost"}
	expect(t, h, "stale-read", "r", "ghost")
}

func TestDuplicatedResponse(t *testing.T) {
	h := good()
	h.Outcomes = append(h.Outcomes, Outcome{ID: "w1",
		Obs: []Observation{{Entity: cell, Pre: State{2, 112, "w2"}, Wrote: true, Delta: 5}}})
	expect(t, h, "duplicate-response", "w1")
}

func TestDuplicateEffect(t *testing.T) {
	h := good()
	// w1's effect applied twice on the same entity (re-executed request).
	h.Outcomes[0].Obs = append(h.Outcomes[0].Obs,
		Observation{Entity: cell, Pre: State{2, 112, "w2"}, Wrote: true, Delta: 5})
	expect(t, h, "duplicate-effect", "w1")
}

func TestTornChain(t *testing.T) {
	h := good()
	// Version gap: w2 observed version 3; nothing installed 2..3. The
	// signature of an unreported effect (e.g. a duplicate re-execution
	// whose response was suppressed).
	h.Outcomes[1].Obs[0].Pre = State{3, 105, "w1"}
	h.Outcomes[2].Obs[0].Pre = State{4, 112, "w2"}
	expect(t, h, "torn-chain", "w2")

	h = good()
	// Prev-pointer mismatch: w2 claims "ghost" installed version 1.
	h.Outcomes[1].Obs[0].Pre = State{1, 105, "ghost"}
	expect(t, h, "torn-chain", "w2", "ghost")
}

func TestSerialOrderViolation(t *testing.T) {
	h := good()
	// Commit tap says w2 committed before w1, but w2 observed w1's write.
	h.Serial = map[string]int64{"w1": 2, "w2": 1, "r": 3}
	expect(t, h, "serial-order", "w1", "w2")
}

func TestSerialReadPlacement(t *testing.T) {
	h := good()
	// r committed between w1 and w2 per the tap, yet observed w2's write.
	h.Serial = map[string]int64{"w1": 1, "r": 2, "w2": 3}
	expect(t, h, "serial-order", "r")
}

// TestSerialReadsAreTapped pins serial mode's coverage of reads. A backend
// that serves reads outside its commit order must still tap each one, at a
// position between the write it observed and the next write to the entity:
// the tap below leaves a gap after every commit (w1 at 2, w2 at 4) for
// exactly that.
func TestSerialReadsAreTapped(t *testing.T) {
	h := good()
	h.Serial = map[string]int64{"w1": 2, "w2": 4, "r": 5}
	if err := Check(h); err != nil {
		t.Fatalf("a read tapped after the write it observed was rejected: %v", err)
	}

	h = good()
	// The tap carries the writes only: serial mode would judge r on nothing.
	h.Serial = map[string]int64{"w1": 2, "w2": 4}
	expect(t, h, "serial-order", "r")

	h = good()
	// Placed too early: r sits between w1 and w2 yet observed w2's write.
	h.Serial = map[string]int64{"w1": 2, "w2": 4, "r": 3}
	expect(t, h, "serial-order", "r", "w2")

	h = good()
	// Placed too late: r observed w1's version but sits after w2, which
	// installed the next one.
	h.Outcomes[2].Obs[0].Pre = State{1, 105, "w1"}
	h.Serial = map[string]int64{"w1": 2, "w2": 4, "r": 5}
	expect(t, h, "serial-order", "r", "w2")
}

func TestCycleWithoutTap(t *testing.T) {
	b := Entity{Class: "Cell", Key: "b"}
	// On cell a: w1 then w2. On cell b: w2 then w1. No serial order
	// explains both; graph mode must find the w1 ⇄ w2 cycle.
	h := &History{
		Invokes: []Op{{ID: "w1"}, {ID: "w2"}},
		Outcomes: []Outcome{
			{ID: "w1", Obs: []Observation{
				{Entity: cell, Pre: State{0, 0, ""}, Wrote: true, Delta: 1},
				{Entity: b, Pre: State{1, 1, "w2"}, Wrote: true, Delta: 1},
			}},
			{ID: "w2", Obs: []Observation{
				{Entity: cell, Pre: State{1, 1, "w1"}, Wrote: true, Delta: 1},
				{Entity: b, Pre: State{0, 0, ""}, Wrote: true, Delta: 1},
			}},
		},
	}
	expect(t, h, "cycle", "w1", "w2")
}

func TestSessionOrder(t *testing.T) {
	h := good()
	// r depends on w2 but observed the entity before w2's write.
	h.Invokes[2].Dep = "w2"
	h.Outcomes[2].Obs[0].Pre = State{1, 105, "w1"}
	expect(t, h, "session-order", "w2", "r")
}

func TestFinalStateMismatch(t *testing.T) {
	h := good()
	h.Serial = map[string]int64{"w1": 1, "w2": 2, "r": 3}
	// Backend lost w2's effect after responding.
	h.Final = map[Entity]State{cell: {1, 105, "w1"}}
	expect(t, h, "final-state", "w1", "w2")
}

func TestErroredOpsHaveNoEffects(t *testing.T) {
	h := good()
	h.Invokes = append(h.Invokes, Op{ID: "e"})
	h.Outcomes = append(h.Outcomes, Outcome{ID: "e", Err: "boom",
		Obs: []Observation{{Entity: cell, Pre: State{2, 112, "w2"}, Wrote: true}}})
	expect(t, h, "errored-effect", "e")
}

func TestInvariantHook(t *testing.T) {
	h := good()
	called := false
	err := Check(h, Invariant{Name: "conservation", Check: func(h *History) error {
		called = true
		return &Violation{Kind: "invariant", Detail: "conservation: total drifted by 3"}
	}})
	if !called {
		t.Fatal("invariant hook not called")
	}
	v, ok := err.(*Violation)
	if !ok || v.Kind != "invariant" {
		t.Fatalf("invariant violation not surfaced: %v", err)
	}
}

func TestUnmatchedResponse(t *testing.T) {
	h := good()
	h.Outcomes = append(h.Outcomes, Outcome{ID: "phantom"})
	expect(t, h, "unmatched-response", "phantom")
}

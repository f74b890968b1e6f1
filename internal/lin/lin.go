// Package lin is a history-based serializability checker for stateful
// entities: it validates a run from the client-visible request/response
// history alone, with no byte-equality against a reference run.
//
// The contract it checks is the one every backend in this repo promises:
// committed transactions behave as if executed one at a time in some
// total order, each request takes effect exactly once, and a client's
// dependent requests observe its earlier ones (read-your-writes).
//
// The trick that makes checking exact rather than approximate is in the
// workload, not the checker (see internal/chaos/workload): every entity
// carries a version counter and the id of its last writer, and every
// operation returns the (version, last-writer, value) triple it observed
// before applying its own effect. Each committed write therefore names
// its predecessor, so the history itself encodes each entity's write
// chain — an Elle-style recoverability argument. The checker rebuilds
// that chain per entity and rejects:
//
//   - lost update: two committed writes observed the same version
//   - duplicate effect: one op id appears twice in an entity's chain
//     (a request re-executed after its first commit)
//   - torn chain: a version gap, or a prev-writer pointer naming an op
//     that did not install the version below it
//   - stale/torn read: a read observing a (version, writer, value)
//     combination that never existed
//   - serial-order: with a commit tap (History.Serial), version order
//     on some entity disagrees with the global commit order
//   - cycle: without a tap, the precedence graph induced by the write
//     chains, reads, and session edges is cyclic (not serializable)
//   - session-order: a dependent op failed to observe its predecessor's
//     effect (read-your-writes violation)
//   - final-state: the state a backend ends in disagrees with the state
//     the committed history reconstructs (an effect was lost or applied
//     twice after responses were released)
//
// Cross-entity invariants (e.g. conservation under transfers) plug in as
// Invariant hooks evaluated over the same history.
package lin

import (
	"fmt"
	"sort"
	"strings"
)

// Entity identifies one stateful entity instance.
type Entity struct {
	Class string
	Key   string
}

func (e Entity) String() string { return e.Class + "/" + e.Key }

// State is an entity's (version, value, last-writer) triple at a point
// in time — the same triple every workload operation observes.
type State struct {
	Version int64
	Value   int64
	// Last is the op id of the writer that installed Version ("" for
	// the preloaded initial state).
	Last string
}

// Observation is what one operation saw on one entity, decoded from its
// response: the pre-state it read, and whether it installed a new
// version on top of it.
type Observation struct {
	Entity Entity
	// Pre is the state the op observed before its own effect: the
	// entity's version, value, and last-writer at read time.
	Pre State
	// Wrote is true when the op installed version Pre.Version+1 with
	// itself as the last writer.
	Wrote bool
	// Delta is the amount the op added to the entity's value (only
	// meaningful when Wrote).
	Delta int64
}

// Op is one invocation in the history.
type Op struct {
	// ID is the workload-level operation id (also the writer id
	// recorded in entity state).
	ID string
	// Method names the entity method invoked, for printouts.
	Method string
	// Dep is the id of the op this one depends on ("" if none): the
	// client submitted this op only after Dep's response arrived, and
	// may have derived arguments from it. Establishes a session-order
	// (read-your-writes) obligation.
	Dep string
}

// Outcome is one response in the history.
type Outcome struct {
	ID string
	// Err is the application-level error string ("" = committed). An
	// errored op must have had no effects.
	Err string
	// Obs are the per-entity observations decoded from the response
	// value (empty when Err != "").
	Obs []Observation
}

// History is everything the checker consumes. Invokes and Outcomes come
// from the client edge; Initial comes from the preload spec; Serial and
// Final are optional backend taps that tighten the check when present.
type History struct {
	Invokes  []Op
	Outcomes []Outcome
	// Initial is the preloaded state per entity. Entities absent from
	// the map start at State{0, 0, ""}.
	Initial map[Entity]State
	// Serial, when non-nil, maps committed op ids to their global
	// commit sequence number (a backend tap, e.g. the StateFlow
	// coordinator's apply order). Enables the exact serial-order check;
	// without it the checker falls back to precedence-graph acyclicity.
	Serial map[string]int64
	// Final, when non-nil, is the entity state read back from the
	// backend after the run settled; checked against the state the
	// committed history reconstructs.
	Final map[Entity]State
}

// Violation is one checker rejection: a minimal counterexample naming
// the entity and the op ids involved.
type Violation struct {
	// Kind is one of: lost-update, duplicate-effect, torn-chain,
	// stale-read, serial-order, cycle, session-order, final-state,
	// duplicate-response, unmatched-response, errored-effect,
	// invariant.
	Kind   string
	Entity Entity // zero for cross-entity kinds
	Ops    []string
	Detail string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lin: %s", v.Kind)
	if v.Entity != (Entity{}) {
		fmt.Fprintf(&b, " on %s", v.Entity)
	}
	if len(v.Ops) > 0 {
		fmt.Fprintf(&b, " [ops %s]", strings.Join(v.Ops, " "))
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// Invariant is a cross-entity predicate evaluated over the whole
// history after the structural checks pass.
type Invariant struct {
	Name  string
	Check func(h *History) error
}

// writer is one committed write on one entity, with the observation
// that produced it.
type writer struct {
	op  string
	obs Observation
}

// Check validates the history and returns the first violation found
// (as a *Violation error), or nil. Structural per-entity checks run
// first, then the ordering check (serial or graph mode), then the
// supplied invariants.
func Check(h *History, invs ...Invariant) error {
	ops := make(map[string]*Op, len(h.Invokes))
	for i := range h.Invokes {
		op := &h.Invokes[i]
		if _, dup := ops[op.ID]; dup {
			return &Violation{Kind: "duplicate-response", Ops: []string{op.ID},
				Detail: "op id invoked twice"}
		}
		ops[op.ID] = op
	}

	// Response sanity: one outcome per op, every outcome matched to an
	// invoke, errored outcomes effect-free.
	seen := make(map[string]*Outcome, len(h.Outcomes))
	for i := range h.Outcomes {
		out := &h.Outcomes[i]
		if _, ok := ops[out.ID]; !ok {
			return &Violation{Kind: "unmatched-response", Ops: []string{out.ID},
				Detail: "response for an op that was never invoked"}
		}
		if prev, dup := seen[out.ID]; dup {
			return &Violation{Kind: "duplicate-response", Ops: []string{out.ID},
				Detail: fmt.Sprintf("two outcomes recorded (%q and %q)", render(prev), render(out))}
		}
		seen[out.ID] = out
		if out.Err != "" && len(out.Obs) > 0 {
			return &Violation{Kind: "errored-effect", Ops: []string{out.ID},
				Detail: fmt.Sprintf("errored op (%s) reported observations", out.Err)}
		}
	}

	// Group committed writes and reads per entity.
	chains := map[Entity][]writer{}
	reads := map[Entity][]writer{} // reuse shape: op + observation
	for id, out := range seen {
		if out.Err != "" {
			continue
		}
		for _, obs := range out.Obs {
			if obs.Wrote {
				chains[obs.Entity] = append(chains[obs.Entity], writer{id, obs})
			} else {
				reads[obs.Entity] = append(reads[obs.Entity], writer{id, obs})
			}
		}
	}

	// installer[e][v] = op id that installed version v on e (writers
	// install Pre.Version+1; the preload installs the initial version).
	installer := map[Entity]map[int64]string{}
	for ent, ws := range chains {
		if v := checkChain(ent, ws, h.initial(ent), installer); v != nil {
			return v
		}
	}
	for ent, rs := range reads {
		if v := checkReads(ent, rs, chains[ent], h.initial(ent), installer[ent]); v != nil {
			return v
		}
	}
	if v := checkSessions(h, ops, seen); v != nil {
		return v
	}
	if h.Serial != nil {
		if v := checkSerial(h, chains, reads); v != nil {
			return v
		}
	} else {
		if v := checkGraph(h, ops, chains, reads, installer); v != nil {
			return v
		}
	}
	if h.Final != nil {
		if v := checkFinal(h, chains); v != nil {
			return v
		}
	}
	for _, inv := range invs {
		if err := inv.Check(h); err != nil {
			if v, ok := err.(*Violation); ok {
				return v
			}
			return &Violation{Kind: "invariant", Detail: inv.Name + ": " + err.Error()}
		}
	}
	return nil
}

func (h *History) initial(e Entity) State {
	if h.Initial != nil {
		if s, ok := h.Initial[e]; ok {
			return s
		}
	}
	return State{}
}

// checkChain validates one entity's committed write chain: versions
// observed by writers must be exactly {v0, v0+1, ..., v0+n-1}, each
// writer's prev pointer must name the op that installed the version it
// observed, the observed values must match the reconstruction, and no
// op id may appear twice.
func checkChain(ent Entity, ws []writer, init State, installer map[Entity]map[int64]string) *Violation {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].obs.Pre.Version != ws[j].obs.Pre.Version {
			return ws[i].obs.Pre.Version < ws[j].obs.Pre.Version
		}
		return ws[i].op < ws[j].op
	})
	inst := map[int64]string{init.Version: init.Last}
	installer[ent] = inst
	byID := map[string]int64{}
	value := init.Value
	next := init.Version
	for _, w := range ws {
		v := w.obs.Pre.Version
		if prior, dup := byID[w.op]; dup {
			return &Violation{Kind: "duplicate-effect", Entity: ent, Ops: []string{w.op},
				Detail: fmt.Sprintf("op wrote twice: at version %d and again at %d (re-executed request)", prior, v)}
		}
		byID[w.op] = v
		switch {
		case v < next:
			other := inst[v+1]
			return &Violation{Kind: "lost-update", Entity: ent, Ops: []string{other, w.op},
				Detail: fmt.Sprintf("both observed version %d; one update is lost", v)}
		case v > next:
			return &Violation{Kind: "torn-chain", Entity: ent, Ops: []string{w.op},
				Detail: fmt.Sprintf("observed version %d but no committed writer installed %d..%d (unreported effect in the chain)", v, next+1, v)}
		}
		if want := inst[v]; w.obs.Pre.Last != want {
			return &Violation{Kind: "torn-chain", Entity: ent, Ops: []string{w.op, w.obs.Pre.Last},
				Detail: fmt.Sprintf("observed last-writer %q at version %d, but %q installed it", w.obs.Pre.Last, v, want)}
		}
		if w.obs.Pre.Value != value {
			return &Violation{Kind: "torn-chain", Entity: ent, Ops: []string{w.op},
				Detail: fmt.Sprintf("observed value %d at version %d, reconstruction says %d", w.obs.Pre.Value, v, value)}
		}
		inst[v+1] = w.op
		value += w.obs.Delta
		next = v + 1
	}
	return nil
}

// checkReads validates committed read observations: each must land on a
// (version, writer, value) state that actually existed on the entity's
// reconstructed chain.
func checkReads(ent Entity, rs []writer, ws []writer, init State, inst map[int64]string) *Violation {
	if inst == nil {
		inst = map[int64]string{init.Version: init.Last}
	}
	// valueAt[v] = entity value while at version v.
	valueAt := map[int64]int64{init.Version: init.Value}
	v, val := init.Version, init.Value
	for _, w := range ws { // already sorted by checkChain
		val += w.obs.Delta
		v = w.obs.Pre.Version + 1
		valueAt[v] = val
	}
	for _, r := range rs {
		want, existed := inst[r.obs.Pre.Version]
		if !existed {
			return &Violation{Kind: "stale-read", Entity: ent, Ops: []string{r.op},
				Detail: fmt.Sprintf("read version %d, which no committed writer installed", r.obs.Pre.Version)}
		}
		if r.obs.Pre.Last != want {
			return &Violation{Kind: "stale-read", Entity: ent, Ops: []string{r.op, r.obs.Pre.Last},
				Detail: fmt.Sprintf("read (version %d, last %q), but %q installed that version", r.obs.Pre.Version, r.obs.Pre.Last, want)}
		}
		if r.obs.Pre.Value != valueAt[r.obs.Pre.Version] {
			return &Violation{Kind: "stale-read", Entity: ent, Ops: []string{r.op},
				Detail: fmt.Sprintf("read value %d at version %d, reconstruction says %d (torn read)", r.obs.Pre.Value, r.obs.Pre.Version, valueAt[r.obs.Pre.Version])}
		}
	}
	return nil
}

// checkSessions enforces read-your-writes along dependency edges: if op
// B declares Dep=A and A committed a write on entity e installing
// version v, then B's observation of e must be at version >= v.
func checkSessions(h *History, ops map[string]*Op, outs map[string]*Outcome) *Violation {
	for id, op := range ops {
		if op.Dep == "" {
			continue
		}
		out, dep := outs[id], outs[op.Dep]
		if out == nil || dep == nil || out.Err != "" || dep.Err != "" {
			continue
		}
		installed := map[Entity]int64{}
		for _, obs := range dep.Obs {
			if obs.Wrote {
				installed[obs.Entity] = obs.Pre.Version + 1
			}
		}
		for _, obs := range out.Obs {
			if v, ok := installed[obs.Entity]; ok && obs.Pre.Version < v {
				return &Violation{Kind: "session-order", Entity: obs.Entity, Ops: []string{op.Dep, id},
					Detail: fmt.Sprintf("%s observed version %d after its dependency %s installed %d (read-your-writes)", id, obs.Pre.Version, op.Dep, v)}
			}
		}
	}
	return nil
}

// checkSerial enforces, given a global commit order, that every
// entity's version order agrees with it: on each entity, commit
// sequence must be strictly increasing along the write chain, and a
// read observing version v must sit between the writes installing v
// and v+1 in the commit order.
func checkSerial(h *History, chains, reads map[Entity][]writer) *Violation {
	for ent, ws := range chains { // sorted by version (checkChain ran first)
		serialOf := func(w writer) (int64, *Violation) {
			s, ok := h.Serial[w.op]
			if !ok {
				return 0, &Violation{Kind: "serial-order", Entity: ent, Ops: []string{w.op},
					Detail: "committed write missing from the backend commit tap"}
			}
			return s, nil
		}
		for i := 1; i < len(ws); i++ {
			a, v := serialOf(ws[i-1])
			if v != nil {
				return v
			}
			b, v := serialOf(ws[i])
			if v != nil {
				return v
			}
			if b <= a {
				return &Violation{Kind: "serial-order", Entity: ent, Ops: []string{ws[i-1].op, ws[i].op},
					Detail: fmt.Sprintf("version order says %s (installed %d) before %s (installed %d), commit order says %d before %d",
						ws[i-1].op, ws[i-1].obs.Pre.Version+1, ws[i].op, ws[i].obs.Pre.Version+1, b, a)}
			}
		}
		// serial window per version: [serial(installer of v), serial(installer of v+1))
		for _, r := range reads[ent] {
			rs, ok := h.Serial[r.op]
			if !ok {
				return &Violation{Kind: "serial-order", Entity: ent, Ops: []string{r.op},
					Detail: "committed read missing from the backend commit tap"}
			}
			for _, w := range ws {
				s, v := serialOf(w)
				if v != nil {
					return v
				}
				installedV := w.obs.Pre.Version + 1
				if rs < s && r.obs.Pre.Version >= installedV {
					return &Violation{Kind: "serial-order", Entity: ent, Ops: []string{r.op, w.op},
						Detail: fmt.Sprintf("read committed at %d observed version %d, installed later at %d", rs, r.obs.Pre.Version, s)}
				}
				if rs > s && r.obs.Pre.Version < installedV {
					return &Violation{Kind: "serial-order", Entity: ent, Ops: []string{r.op, w.op},
						Detail: fmt.Sprintf("read committed at %d observed version %d, but %s installed %d earlier at %d", rs, r.obs.Pre.Version, w.op, installedV, s)}
				}
			}
		}
	}
	// Session edges must agree with the commit order too.
	for i := range h.Invokes {
		op := &h.Invokes[i]
		if op.Dep == "" {
			continue
		}
		a, aok := h.Serial[op.Dep]
		b, bok := h.Serial[op.ID]
		if aok && bok && b <= a {
			return &Violation{Kind: "serial-order", Ops: []string{op.Dep, op.ID},
				Detail: fmt.Sprintf("dependent op committed at %d before its dependency at %d", b, a)}
		}
	}
	return nil
}

// checkGraph enforces serializability without a commit tap: build the
// precedence graph (write-chain edges, read placement edges, session
// edges) and reject cycles.
func checkGraph(h *History, ops map[string]*Op, chains, reads map[Entity][]writer, installer map[Entity]map[int64]string) *Violation {
	edges := map[string][]string{}
	addEdge := func(from, to string) {
		if from != "" && to != "" && from != to {
			edges[from] = append(edges[from], to)
		}
	}
	for ent, ws := range chains { // sorted by version
		for i := 1; i < len(ws); i++ {
			addEdge(ws[i-1].op, ws[i].op)
		}
		inst := installer[ent]
		for _, r := range reads[ent] {
			// writer of observed version happens-before the read;
			// the read happens-before the next version's writer.
			addEdge(inst[r.obs.Pre.Version], r.op)
			addEdge(r.op, inst[r.obs.Pre.Version+1])
		}
	}
	for id, op := range ops {
		if op.Dep != "" {
			addEdge(op.Dep, id)
		}
	}
	// Iterative DFS cycle detection, deterministic order.
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var cycle []string
	var dfs func(n string, path []string) bool
	dfs = func(n string, path []string) bool {
		color[n] = gray
		path = append(path, n)
		next := append([]string(nil), edges[n]...)
		sort.Strings(next)
		for _, m := range next {
			switch color[m] {
			case gray:
				// Found a back edge: slice the cycle out of the path.
				for i, p := range path {
					if p == m {
						cycle = append(append([]string(nil), path[i:]...), m)
						return true
					}
				}
				cycle = []string{m, n, m}
				return true
			case white:
				if dfs(m, path) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n, nil) {
			return &Violation{Kind: "cycle", Ops: cycle,
				Detail: "precedence graph has a cycle: no serial order explains the observed history"}
		}
	}
	return nil
}

// checkFinal compares the backend's settled state against the state
// the committed history reconstructs.
func checkFinal(h *History, chains map[Entity][]writer) *Violation {
	for ent, got := range h.Final {
		init := h.initial(ent)
		version, value, last := init.Version, init.Value, init.Last
		for _, w := range chains[ent] { // sorted by version
			version = w.obs.Pre.Version + 1
			value += w.obs.Delta
			last = w.op
		}
		if got.Version != version || got.Value != value || got.Last != last {
			return &Violation{Kind: "final-state", Entity: ent, Ops: []string{last, got.Last},
				Detail: fmt.Sprintf("backend settled at (version %d, value %d, last %q); committed history reconstructs (version %d, value %d, last %q)",
					got.Version, got.Value, got.Last, version, value, last)}
		}
	}
	return nil
}

func render(o *Outcome) string {
	if o.Err != "" {
		return "err:" + o.Err
	}
	return fmt.Sprintf("%d obs", len(o.Obs))
}

// Package workload generates adversarial traffic for the linearizability
// checker (internal/lin): contended, order-sensitive, data-dependent —
// exactly the traffic the byte-equality oracle's catalogue deliberately
// avoids.
//
// Every profile drives one entity class, Cell, built so that responses
// alone recover the full per-entity write history: a Cell carries a
// version counter, an integer value, and the id of its last writer, and
// every operation returns the "key|version|value|last" observation(s) it
// made before applying its own effect. Decode turns those responses into
// lin.Observations; lin.Check does the rest.
//
// Three profiles, seeded and deterministic like chaos.FromSeed:
//
//   - HotKey: zipf-style skew — most writes land on two hot cells, so
//     every epoch batch carries real WAW/RAW conflicts and the Aria
//     fallback phase runs hot.
//   - DataDep: route transactions whose *read* of the hot cell's value
//     decides which of two target cells gets written — the write set is
//     data-dependent, and the two candidates travel inside a list
//     argument, so the request does not give the footprint either
//     (ir.Method.RefClosed): a conflict-aborted route queues in
//     StateFlow's fallback chain on what its first execution observed, and
//     a re-execution that picks the other candidate drifts — the drift the
//     chain's one rule must catch. Sharded, the unnamed candidate is what
//     drags a shard into a global batch's footprint mid-execution.
//   - Chain: dependent-chain transactions — each next op is submitted
//     only after the previous response arrives, with its target and
//     amount derived from the observed values (read-your-writes across
//     the chain, checked via lin session edges).
//   - XShard: transfer-heavy traffic over a wide cell population, paired
//     so that under a sharded deployment most moves span two coordinator
//     groups — the profile that drives the global sequencing path
//     (fence and the rows its ack carries, execution at the sequencer,
//     the apply its shard's decide installs) hot while single-shard
//     bumps race it on every shard.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/lin"
)

// Profile names one adversarial traffic shape.
type Profile string

// The profiles.
const (
	HotKey  Profile = "hotkey"
	DataDep Profile = "datadep"
	Chain   Profile = "chain"
	XShard  Profile = "xshard"
)

// Profiles lists every profile, for sweeps.
var Profiles = []Profile{HotKey, DataDep, Chain, XShard}

// ByName resolves a profile name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if string(p) == strings.ToLower(name) {
			return p, nil
		}
	}
	return "", fmt.Errorf("workload: unknown profile %q (have hotkey, datadep, chain, xshard)", name)
}

// Class is the entity class every profile drives.
const Class = "Cell"

// Program returns the DSL source of the Cell entity. Observations are
// inlined (not factored into a helper method) so each method reads its
// pre-state exactly once, before its own writes.
func Program() string {
	return `
@entity
class Cell:
    def __init__(self, key: str, value: int):
        self.key: str = key
        self.version: int = 0
        self.value: int = value
        self.last: str = ""

    def __key__(self) -> str:
        return self.key

    def get(self) -> str:
        return self.key + "|" + str(self.version) + "|" + str(self.value) + "|" + self.last

    def bump(self, op: str, d: int) -> str:
        pre: str = self.key + "|" + str(self.version) + "|" + str(self.value) + "|" + self.last
        self.version += 1
        self.value += d
        self.last = op
        return pre

    @transactional
    def move(self, op: str, d: int, to: Cell) -> str:
        pre: str = self.key + "|" + str(self.version) + "|" + str(self.value) + "|" + self.last
        self.version += 1
        self.value -= d
        self.last = op
        return pre + "&" + to.bump(op, d)

    @transactional
    def route(self, op: str, d: int, cands: list[Cell]) -> str:
        pre: str = self.key + "|" + str(self.version) + "|" + str(self.value) + "|" + self.last
        self.version += 1
        self.last = op
        to: Cell = cands[0]
        if self.value % 2 != 0:
            to = cands[1]
        return pre + "&" + to.bump(op, d)
`
}

// Op is one generated invocation.
type Op struct {
	// ID is the workload-level op id, passed to the entity method as its
	// writer id and used by the checker.
	ID     string
	Method string // get | bump | move | route
	Key    string // the entity invoked
	D      int64
	To     string // move target
	A, B   string // route candidates (the read decides which is written)
	// Dep is the op this one was derived from ("" = independent).
	Dep string
	// Chain/Step locate chain ops within their chain.
	Chain, Step int
}

// Spec is a fully derived, deterministic workload instance.
type Spec struct {
	Profile Profile
	Seed    int64
	Cells   int
	// Ops is the static op count (HotKey, DataDep).
	Ops int
	// Chains × Steps sizes the Chain profile.
	Chains, Steps int
}

// FromSeed derives a Spec the same way chaos.FromSeed derives plans:
// same (profile, seed) → same traffic.
func FromSeed(p Profile, seed int64) Spec {
	s := Spec{Profile: p, Seed: seed}
	switch p {
	case HotKey:
		s.Cells, s.Ops = 8, 60
	case DataDep:
		s.Cells, s.Ops = 10, 60
	case Chain:
		s.Cells, s.Chains, s.Steps = 10, 6, 10
	case XShard:
		// A wide population: random pairs land on distinct shards with
		// high probability for any shard count the sweeps deploy.
		s.Cells, s.Ops = 16, 60
	}
	return s
}

// Key formats the i-th cell key.
func Key(i int) string { return fmt.Sprintf("c%02d", i) }

// initialValue is the i-th cell's preloaded value. Mixed parity matters:
// route branches on value parity, so preloads must populate both sides.
func initialValue(i int) int64 { return int64(100*(i+1) + i%3) }

// Preload installs the cell population.
func (s Spec) Preload(admin stateflow.Admin) error {
	for i := 0; i < s.Cells; i++ {
		if err := admin.Preload(Class, stateflow.Str(Key(i)), stateflow.Int(initialValue(i))); err != nil {
			return err
		}
	}
	return nil
}

// Initial returns the preloaded state in checker form.
func (s Spec) Initial() map[lin.Entity]lin.State {
	out := make(map[lin.Entity]lin.State, s.Cells)
	for i := 0; i < s.Cells; i++ {
		out[lin.Entity{Class: Class, Key: Key(i)}] = lin.State{Value: initialValue(i)}
	}
	return out
}

// Static generates the full op list for the independent profiles
// (HotKey, DataDep). Chain traffic is response-driven; see Starts/Next.
func (s Spec) Static() []Op {
	rng := rand.New(rand.NewSource(s.Seed*7919 + int64(len(s.Profile))))
	ops := make([]Op, 0, s.Ops)
	for i := 0; i < s.Ops; i++ {
		op := Op{ID: fmt.Sprintf("%c%03d", s.Profile[0], i), D: int64(1 + rng.Intn(9))}
		switch s.Profile {
		case HotKey:
			// Two hot cells soak up most of the traffic.
			pick := func() string {
				if rng.Intn(100) < 60 {
					return Key(rng.Intn(2))
				}
				return Key(rng.Intn(s.Cells))
			}
			op.Key = pick()
			switch r := rng.Intn(100); {
			case r < 25:
				op.Method = "get"
			case r < 75:
				op.Method = "bump"
			default:
				op.Method = "move"
				op.To = pick()
				for op.To == op.Key {
					op.To = Key(rng.Intn(s.Cells))
				}
			}
		case XShard:
			// Transfer chains across the whole population: mostly moves
			// between uniformly random distinct cells (cross-shard with
			// high probability on a sharded deployment), with enough
			// bumps and reads mixed in that shard-local epochs keep
			// interleaving between the global batches.
			op.Key = Key(rng.Intn(s.Cells))
			switch r := rng.Intn(100); {
			case r < 15:
				op.Method = "get"
			case r < 35:
				op.Method = "bump"
			default:
				op.Method = "move"
				op.To = Key(rng.Intn(s.Cells))
				for op.To == op.Key {
					op.To = Key(rng.Intn(s.Cells))
				}
			}
		case DataDep:
			op.Key = Key(rng.Intn(3)) // contended deciders
			switch r := rng.Intn(100); {
			case r < 50:
				op.Method = "route"
				op.A = Key(3 + rng.Intn(s.Cells-3))
				op.B = Key(3 + rng.Intn(s.Cells-3))
				for op.B == op.A {
					op.B = Key(3 + rng.Intn(s.Cells-3))
				}
			case r < 80:
				op.Method = "bump"
			default:
				op.Method = "get"
			}
		default:
			panic("workload: Static on profile " + s.Profile)
		}
		ops = append(ops, op)
	}
	return ops
}

// Starts returns the first op of each chain.
func (s Spec) Starts() []Op {
	ops := make([]Op, s.Chains)
	for c := range ops {
		ops[c] = Op{
			ID:     chainID(c, 0),
			Method: "bump",
			Key:    Key(c % s.Cells),
			D:      int64(1 + c),
			Chain:  c,
		}
	}
	return ops
}

func chainID(chain, step int) string { return fmt.Sprintf("c%dx%02d", chain, step) }

// Next derives a chain's next op from the previous op's decoded
// observations — deterministic given the response, which is the point:
// the traffic itself is order-sensitive. Returns false when the chain is
// done. Every next op targets an entity the previous op wrote, so each
// chain edge is a read-your-writes obligation the checker enforces.
func (s Spec) Next(prev Op, obs []lin.Observation, failed bool) (Op, bool) {
	step := prev.Step + 1
	if step >= s.Steps {
		return Op{}, false
	}
	op := Op{ID: chainID(prev.Chain, step), Chain: prev.Chain, Step: step, Dep: prev.ID}
	if failed || len(obs) == 0 {
		// Previous op lost its effects (app error): restart the chain on
		// its home cell with no dependency edge.
		op.Dep = ""
		op.Method = "bump"
		op.Key = Key(prev.Chain % s.Cells)
		op.D = 1
		return op, true
	}
	// Continue on a cell the previous op wrote (the last observation is
	// the handed-off entity for move), with arguments derived from what
	// it observed.
	o := obs[len(obs)-1]
	op.Key = o.Entity.Key
	op.D = o.Pre.Value%7 + 1
	if op.D <= 0 {
		op.D = 1
	}
	h := mix64(uint64(s.Seed)*0x9e3779b97f4a7c15 + uint64(prev.Chain)<<16 + uint64(step))
	switch h % 3 {
	case 0:
		op.Method = "get"
	case 1:
		op.Method = "bump"
	default:
		op.Method = "move"
		op.To = Key(int(h>>8) % s.Cells)
		if op.To == op.Key {
			op.To = Key((int(h>>8) + 1) % s.Cells)
		}
	}
	return op, true
}

func mix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return v ^ v>>33
}

// Args builds the DSL call arguments for an op.
func (op Op) Args() []stateflow.Value {
	switch op.Method {
	case "get":
		return nil
	case "bump":
		return []stateflow.Value{stateflow.Str(op.ID), stateflow.Int(op.D)}
	case "move":
		return []stateflow.Value{stateflow.Str(op.ID), stateflow.Int(op.D), stateflow.Ref(Class, op.To)}
	case "route":
		return []stateflow.Value{stateflow.Str(op.ID), stateflow.Int(op.D),
			stateflow.List(stateflow.Ref(Class, op.A), stateflow.Ref(Class, op.B))}
	}
	panic("workload: unknown method " + op.Method)
}

// Invoke is the op in checker form.
func (op Op) Invoke() lin.Op { return lin.Op{ID: op.ID, Method: op.Method, Dep: op.Dep} }

// Decode parses an op's response value into checker observations. The
// response encodes one "key|version|value|last" part per entity touched,
// in touch order: self first, then the written target for move/route.
func Decode(op Op, val stateflow.Value) ([]lin.Observation, error) {
	parts := strings.Split(val.Str(), "&")
	want := 1
	if op.Method == "move" || op.Method == "route" {
		want = 2
	}
	if val.Str() == "" || len(parts) != want {
		return nil, fmt.Errorf("workload: op %s (%s): response %q has %d parts, want %d",
			op.ID, op.Method, val.Str(), len(parts), want)
	}
	obs := make([]lin.Observation, 0, want)
	for i, part := range parts {
		fields := strings.SplitN(part, "|", 4)
		if len(fields) != 4 {
			return nil, fmt.Errorf("workload: op %s: malformed observation %q", op.ID, part)
		}
		version, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: op %s: bad version in %q", op.ID, part)
		}
		value, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: op %s: bad value in %q", op.ID, part)
		}
		o := lin.Observation{
			Entity: lin.Entity{Class: Class, Key: fields[0]},
			Pre:    lin.State{Version: version, Value: value, Last: fields[3]},
		}
		switch {
		case op.Method == "get":
			// read-only
		case i == 0 && op.Method == "move":
			o.Wrote, o.Delta = true, -op.D
		case i == 0 && op.Method == "route":
			o.Wrote, o.Delta = true, 0
		default: // bump self, or the written leg of move/route
			o.Wrote, o.Delta = true, op.D
		}
		obs = append(obs, o)
	}
	if op.Method == "route" && obs[1].Entity.Key != op.A && obs[1].Entity.Key != op.B {
		return nil, fmt.Errorf("workload: op %s: route wrote %s, declared %s|%s",
			op.ID, obs[1].Entity.Key, op.A, op.B)
	}
	return obs, nil
}

// Conservation returns the cross-entity invariant for a run of this
// spec: the settled total value must equal the preloaded total plus the
// net delta of every committed op (bump and the route credit add D,
// move is a zero-sum transfer). Catches half-applied transactions and
// re-applied effects that every per-entity check happens to miss.
func (s Spec) Conservation() lin.Invariant {
	return lin.Invariant{
		Name: "conservation",
		Check: func(h *lin.History) error {
			if h.Final == nil {
				return nil
			}
			var want, got int64
			for _, st := range h.Initial {
				want += st.Value
			}
			for i := range h.Outcomes {
				out := &h.Outcomes[i]
				if out.Err != "" {
					continue
				}
				for _, o := range out.Obs {
					if o.Wrote {
						want += o.Delta
					}
				}
			}
			for _, st := range h.Final {
				got += st.Value
			}
			if got != want {
				return &lin.Violation{Kind: "invariant",
					Detail: fmt.Sprintf("conservation: settled total %d, committed history says %d (drift %+d)",
						got, want, got-want)}
			}
			return nil
		},
	}
}

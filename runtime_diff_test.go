// Differential tests across runtimes: every example program runs one
// seeded random workload on the Local runtime — the semantic reference —
// and on each simulated deployment (StateFlow classic, StateFlow on four
// shards behind the sequencer, the StateFun model). Every runtime executes
// the same compiled dataflow on the same slotted rows, so each must
// produce the reference's response to every call and byte-identical
// canonical encodings of every entity's committed state.
package stateflow_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// exampleSource extracts the embedded DSL source from an example's
// main.go, so the differential tests exercise the exact programs the
// examples ship.
func exampleSource(t *testing.T, name string) string {
	t.Helper()
	buf, err := os.ReadFile("examples/" + name + "/main.go")
	if err != nil {
		t.Fatalf("read example %s: %v", name, err)
	}
	s := string(buf)
	const marker = "const source = `"
	i := strings.Index(s, marker)
	if i < 0 {
		t.Fatalf("example %s has no embedded source", name)
	}
	s = s[i+len(marker):]
	j := strings.Index(s, "`")
	if j < 0 {
		t.Fatalf("example %s source not terminated", name)
	}
	return s[:j]
}

// journalSource is the one program here no example ships: its
// transactions mutate list and dict attributes in place on several
// entities, which is what an execution path that handed out committed
// containers by reference would get wrong. push names its second entity in
// the arguments; fanout discovers its peers only from state it has already
// mutated, so on a sharded deployment every call voids at least one
// reconnaissance attempt after an in-place write.
const journalSource = `
@entity
class Log:
    def __init__(self, name: str):
        self.name: str = name
        self.items: list[int] = [0]
        self.seen: dict[str, int] = {}
        self.peers: list[Log] = []

    def __key__(self) -> str:
        return self.name

    def link(self, peer: Log) -> int:
        self.peers.append(peer)
        return len(self.peers)

    def record(self, who: str, x: int) -> int:
        self.items.append(x)
        self.seen[who] = x
        return len(self.items)

    @transactional
    def push(self, other: Log, x: int) -> int:
        self.items.append(x)
        self.seen["self"] = x
        n: int = other.record(self.name, x)
        return n + len(self.items)

    @transactional
    def fanout(self, x: int) -> int:
        self.items[0] = x
        self.items.append(x)
        n: int = 0
        for p in self.peers:
            n += p.record(self.name, x)
        return n
`

// diffPrograms lists the programs under differential test.
func diffPrograms(t *testing.T) map[string]string {
	return map[string]string{
		"quickstart":   exampleSource(t, "quickstart"),
		"banking":      exampleSource(t, "banking"),
		"shoppingcart": exampleSource(t, "shoppingcart"),
		"tpcc":         tpcc.Program(),
		"ycsb":         ycsb.Program(),
		"journal":      journalSource,
	}
}

// argGen deterministically generates call arguments from method
// signatures. Two generators with the same seed over the same program
// produce identical argument streams, which is what makes the runtimes
// comparable.
type argGen struct {
	r       *rand.Rand
	keys    map[string][]string // class -> keys of existing entities
	nextKey int
}

func newArgGen(seed int64) *argGen {
	return &argGen{r: rand.New(rand.NewSource(seed)), keys: map[string][]string{}}
}

func (g *argGen) freshKey() string {
	g.nextKey++
	return fmt.Sprintf("k%03d", g.nextKey)
}

func (g *argGen) pickKey(class string) (string, bool) {
	ks := g.keys[class]
	if len(ks) == 0 {
		return "", false
	}
	return ks[g.r.Intn(len(ks))], true
}

// value generates one argument for a type, or ok=false if the type is
// not generatable (e.g. no entity of the class exists yet).
func (g *argGen) value(tr ir.TypeRef) (stateflow.Value, bool) {
	if tr.Entity {
		k, ok := g.pickKey(tr.Name)
		if !ok {
			return stateflow.None, false
		}
		return stateflow.Ref(tr.Name, k), true
	}
	switch tr.Name {
	case "int":
		return stateflow.Int(int64(g.r.Intn(30))), true
	case "float":
		return stateflow.Float(float64(g.r.Intn(20))), true
	case "str":
		return stateflow.Str(fmt.Sprintf("s%d", g.r.Intn(8))), true
	case "bool":
		return stateflow.Bool(g.r.Intn(2) == 0), true
	case "list":
		elem := ir.TypeRef{Name: "int"}
		if len(tr.Args) > 0 {
			elem = tr.Args[0]
		}
		n := 1 + g.r.Intn(3)
		elems := make([]stateflow.Value, 0, n)
		for i := 0; i < n; i++ {
			v, ok := g.value(elem)
			if !ok {
				return stateflow.None, false
			}
			elems = append(elems, v)
		}
		return stateflow.List(elems...), true
	default:
		return stateflow.None, false
	}
}

// ctorArgs generates constructor arguments, substituting a fresh unique
// key for the operator's key parameter.
func (g *argGen) ctorArgs(op *ir.Operator) ([]stateflow.Value, string, bool) {
	init := op.Method("__init__")
	args := make([]stateflow.Value, 0, len(init.Params))
	key := ""
	for _, p := range init.Params {
		if p.Name == op.KeyParam {
			key = g.freshKey()
			args = append(args, stateflow.Str(key))
			continue
		}
		v, ok := g.value(p.Type)
		if !ok {
			return nil, "", false
		}
		args = append(args, v)
	}
	return args, key, key != ""
}

// step describes one generated call of the workload.
type step struct {
	class, key, method string
	args               []stateflow.Value
}

// workload generates a deterministic call sequence over a program: every
// class gets a few entities, then n random method calls land on random
// entities. The generated sequence depends only on (prog, seed).
func workload(prog *stateflow.Program, seed int64, entities, n int) ([]step, *argGen) {
	g := newArgGen(seed)
	var creates []step
	for _, class := range prog.OperatorOrder {
		op := prog.Operators[class]
		for i := 0; i < entities; i++ {
			args, key, ok := g.ctorArgs(op)
			if !ok {
				continue
			}
			creates = append(creates, step{class: class, key: key, method: "__init__", args: args})
			g.keys[class] = append(g.keys[class], key)
		}
	}
	var calls []step
	for len(calls) < n {
		class := prog.OperatorOrder[g.r.Intn(len(prog.OperatorOrder))]
		op := prog.Operators[class]
		var methods []string
		for _, mn := range op.MethodOrder {
			if !strings.HasPrefix(mn, "__") {
				methods = append(methods, mn)
			}
		}
		if len(methods) == 0 {
			continue
		}
		m := op.Methods[methods[g.r.Intn(len(methods))]]
		key, ok := g.pickKey(class)
		if !ok {
			continue
		}
		args := make([]stateflow.Value, 0, len(m.Params))
		argsOK := true
		for _, p := range m.Params {
			v, ok := g.value(p.Type)
			if !ok {
				argsOK = false
				break
			}
			args = append(args, v)
		}
		if !argsOK {
			continue
		}
		calls = append(calls, step{class: class, key: key, method: m.Name, args: args})
	}
	return append(creates, calls...), g
}

// transcript runs the workload through a runtime's portable Client —
// constructors included, so entity creation takes the full execute path —
// and returns every call's response plus the canonical encoding of every
// entity the runtime holds.
func transcript(t *testing.T, prog *stateflow.Program, client stateflow.Client, steps []step) ([]string, map[string][]byte) {
	t.Helper()
	var lines []string
	for _, s := range steps {
		res, err := client.Entity(s.class, s.key).Call(s.method, s.args...)
		if err != nil {
			t.Fatalf("call %s.%s: %v", s.class, s.method, err)
		}
		lines = append(lines, fmt.Sprintf("%s<%s>.%s -> %s / %s",
			s.class, s.key, s.method, res.Value.Repr(), res.Err))
	}
	states := map[string][]byte{}
	admin := client.Admin()
	for _, class := range prog.OperatorOrder {
		for _, key := range admin.Keys(class) {
			st, ok := admin.Inspect(class, key)
			if !ok {
				t.Fatalf("state of %s<%s> vanished", class, key)
			}
			e := interp.NewEncoder()
			e.State(interp.MapState(st))
			states[class+"<"+key+">"] = e.Bytes()
		}
	}
	return lines, states
}

func compareRuns(t *testing.T, name string, tRef, tGot []string, sRef, sGot map[string][]byte) {
	t.Helper()
	if len(tRef) != len(tGot) {
		t.Fatalf("%s: transcript lengths differ: %d vs %d", name, len(tRef), len(tGot))
	}
	for i := range tRef {
		if tRef[i] != tGot[i] {
			t.Fatalf("%s: call %d diverged:\n  local: %s\n  got:   %s", name, i, tRef[i], tGot[i])
		}
	}
	if len(sRef) != len(sGot) {
		t.Fatalf("%s: entity sets differ: %d vs %d", name, len(sRef), len(sGot))
	}
	keys := make([]string, 0, len(sRef))
	for k := range sRef {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, ok := sGot[k]
		if !ok {
			t.Fatalf("%s: entity %s missing", name, k)
		}
		if !bytes.Equal(sRef[k], b) {
			t.Fatalf("%s: committed state of %s not byte-identical to the local runtime's", name, k)
		}
	}
}

// TestDifferentialLocal pins the reference itself on a longer workload:
// driven directly, the Local runtime answers what its Client facade
// reports, and every row's canonical encoding equals the name-keyed
// MapState encoding of the attributes Inspect returns — the identity that
// lets a global batch's write-sets be rows: a worker installing one is
// charged exactly the bytes the name-keyed image had.
func TestDifferentialLocal(t *testing.T) {
	for name, src := range diffPrograms(t) {
		t.Run(name, func(t *testing.T) {
			prog := stateflow.MustCompile(src)
			steps, _ := workload(prog, 42, 3, 60)
			if len(steps) == 0 {
				t.Fatal("workload generated no steps")
			}
			rt := stateflow.NewLocal(prog)
			var lines []string
			for _, s := range steps {
				res, err := rt.Invoke(s.class, s.key, s.method, s.args...)
				if err != nil {
					t.Fatalf("invoke %s.%s: %v", s.class, s.method, err)
				}
				lines = append(lines, fmt.Sprintf("%s<%s>.%s -> %s / %s",
					s.class, s.key, s.method, res.Value.Repr(), res.Err))
			}
			rows := map[string][]byte{}
			for _, class := range prog.OperatorOrder {
				for _, key := range rt.Keys(class) {
					rows[class+"<"+key+">"], _ = rt.EncodeState(class, key)
				}
			}
			tClient, sClient := transcript(t, prog, stateflow.NewLocalClient(prog), steps)
			compareRuns(t, name, lines, tClient, rows, sClient)
		})
	}
}

// TestDifferentialSimulated pins every simulated deployment to the Local
// runtime on every example program. The four-shard leg must route part of
// the workload through the sequencer, so the global execution path is
// never vacuously covered.
func TestDifferentialSimulated(t *testing.T) {
	legs := []struct {
		name string
		cfg  stateflow.SimConfig
	}{
		{"stateflow", stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7}},
		{"stateflow-4shards", stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7, Shards: 4}},
		{"statefun", stateflow.SimConfig{Backend: stateflow.BackendStateFun, Seed: 7}},
	}
	for name, src := range diffPrograms(t) {
		prog := stateflow.MustCompile(src)
		// Seed chosen so that no split method fails after a partial effect:
		// Local and StateFun keep such effects where StateFlow's
		// transaction aborts them — a semantic difference between the
		// runtimes, not the equivalence under test.
		steps, _ := workload(prog, 11, 4, 30)
		if len(steps) == 0 {
			t.Fatalf("%s: workload generated no steps", name)
		}
		tRef, sRef := transcript(t, prog, stateflow.NewLocalClient(prog), steps)
		for _, leg := range legs {
			t.Run(name+"/"+leg.name, func(t *testing.T) {
				sim := stateflow.NewSimulation(prog, leg.cfg)
				tGot, sGot := transcript(t, prog, sim.Client(), steps)
				compareRuns(t, name+"/"+leg.name, tRef, tGot, sRef, sGot)
				if sh := sim.Sharded(); sh != nil && sh.Sequencer() != nil && sh.Sequencer().Stats().GlobalTxns == 0 {
					t.Fatal("no transaction took the sequencer's global path: the sharded leg is vacuous")
				}
			})
		}
	}
}

// logRef names the i-th journal entity.
func logRef(i int) stateflow.Value { return stateflow.Ref("Log", fmt.Sprintf("log%d", i)) }

// TestDifferentialContainerWrites drives journal transactions whose two
// entities provably live on different shards, so in-place list and dict
// writes are what the sequencer's global path carries (the generated
// workloads above mostly push scalars through it). Every push voids an
// attempt after mutating its receiver, and every fanout additionally grows
// the fence footprint to peers it only learns from state; a void attempt
// that left a trace, or a write-set that missed a container write, shows up
// as a duplicated or lost element against the Local runtime.
func TestDifferentialContainerWrites(t *testing.T) {
	prog := stateflow.MustCompile(journalSource)
	const n = 8
	sim := stateflow.NewSimulation(prog, stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7, Shards: 4})
	shard := func(i int) int { return sim.Sharded().ShardOf(logRef(i).R) }
	// peer(i) is the next entity around the ring on another shard.
	peer := func(i int) int {
		for d := 1; d < n; d++ {
			if j := (i + d) % n; shard(j) != shard(i) {
				return j
			}
		}
		t.Fatalf("every Log hashes to shard %d", shard(i))
		return 0
	}
	var steps []step
	call := func(i int, method string, args ...stateflow.Value) {
		steps = append(steps, step{class: "Log", key: logRef(i).R.Key, method: method, args: args})
	}
	for i := 0; i < n; i++ {
		call(i, "__init__", stateflow.Str(logRef(i).R.Key))
	}
	for i := 0; i < n; i++ {
		call(i, "link", logRef(peer(i)))
		call(i, "link", logRef(peer(peer(i))))
	}
	global := 2 * n // a link's argument lives on another shard
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			call(i, "push", logRef(peer(i)), stateflow.Int(int64(100*round+i)))
			call(peer(i), "fanout", stateflow.Int(int64(100*round+50+i)))
			global += 2
		}
	}
	tRef, sRef := transcript(t, prog, stateflow.NewLocalClient(prog), steps)
	tGot, sGot := transcript(t, prog, sim.Client(), steps)
	compareRuns(t, "journal/stateflow-4shards", tRef, tGot, sRef, sGot)
	if got := sim.Sharded().Sequencer().Stats().GlobalTxns; got != global {
		t.Fatalf("%d transactions took the sequencer's global path, want %d", got, global)
	}
}

// TestContainerWritesSurviveAborts races container-mutating transactions
// over three entities, so most attempts abort and re-execute (classic) or
// share a global batch (four shards). Each of the 30 pushes must leave
// exactly one element on each of its two entities however often it ran.
func TestContainerWritesSurviveAborts(t *testing.T) {
	prog := stateflow.MustCompile(journalSource)
	for _, shards := range []int{0, 4} {
		sim := stateflow.NewSimulation(prog, stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Seed: 7, Shards: shards})
		c := sim.Client()
		for i := 0; i < 3; i++ {
			if _, err := c.Entity("Log", logRef(i).R.Key).Call("__init__", stateflow.Str(logRef(i).R.Key)); err != nil {
				t.Fatal(err)
			}
		}
		var futs []*stateflow.Future
		for i := 0; i < 30; i++ {
			a := i % 3
			b := (a + 1 + i/3%2) % 3
			futs = append(futs, c.Entity("Log", logRef(a).R.Key).Submit("push", logRef(b), stateflow.Int(int64(i+1))))
		}
		for _, f := range futs {
			if res, err := f.Wait(); err != nil || res.Err != "" {
				t.Fatalf("shards=%d: push failed: %v %s", shards, err, res.Err)
			}
		}
		for i := 0; i < 3; i++ {
			st, _ := c.Admin().Inspect("Log", logRef(i).R.Key)
			seen := map[int64]bool{}
			for _, v := range st["items"].L.Elems {
				if seen[v.I] {
					t.Errorf("shards=%d: %s holds %d twice: %s", shards, logRef(i).R.Key, v.I, st["items"].Repr())
				}
				seen[v.I] = true
			}
			if got := len(st["items"].L.Elems); got != 21 {
				t.Errorf("shards=%d: %s holds %d items, want 21", shards, logRef(i).R.Key, got)
			}
		}
	}
}

// TestQuerySeesSlottedState reads committed row state through the admin
// surface: after a transfer, the four balances still sum to the 400 they
// were preloaded with (money conservation).
func TestQuerySeesSlottedState(t *testing.T) {
	prog := stateflow.MustCompile(exampleSource(t, "banking"))
	sim := stateflow.NewSimulation(prog, stateflow.SimConfig{Backend: stateflow.BackendStateFlow})
	for i := 0; i < 4; i++ {
		if err := sim.Preload("Account", stateflow.Str(fmt.Sprintf("acc%d", i)), stateflow.Int(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Client().Entity("Account", "acc0").Call("transfer", stateflow.Int(30), stateflow.Ref("Account", "acc1")); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 4; i++ {
		st, ok := sim.Client().Admin().Inspect("Account", fmt.Sprintf("acc%d", i))
		if !ok {
			t.Fatalf("acc%d is missing", i)
		}
		total += st["balance"].I
	}
	if total != 400 {
		t.Fatalf("total balance %d, want 400 (money conservation)", total)
	}
}

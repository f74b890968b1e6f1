// Package statefun implements the baseline runtime of the paper's
// evaluation: the Apache Flink StateFun deployment model (§3). Events
// enter through a Kafka-model broker; an ingress router performs keyBy and
// forwards each event to the stateful map operator instance owning the
// key; every function execution ships the entity state to an *external*
// stateless function runtime over the network and applies the returned
// state updates; and function chaining re-inserts events through the
// broker ("we use Kafka to re-insert an event to the streaming dataflow,
// thereby avoiding cyclic dataflows").
//
// Faithfully to §3/§4, this runtime has no transactions and no locking:
// concurrent chains over the same key interleave freely, so reads cost the
// same as writes (every call pays the broker plus remote-function network
// hops) and lost updates are possible — the inconsistency the paper
// motivates StateFlow with.
package statefun

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/queue"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/systems/costmodel"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

const (
	ingressTopic = "ingress"
	egressTopic  = "egress"
)

// Config parameterizes a StateFun-model deployment.
type Config struct {
	// FlinkWorkers hosts state and messaging; FnRuntimes executes
	// functions. The paper splits its 6 system cores half and half.
	FlinkWorkers int
	FnRuntimes   int
	Costs        costmodel.Costs
	// DedupRetention bounds the broker's ingress dedup set — the same
	// horizon the StateFlow coordinator uses for its seen/delivered
	// maps: a request id becomes prunable once its LATEST arrival is at
	// least this old (duplicates refresh the window, so a still-retrying
	// in-flight request is never evicted), and a retry or wire duplicate
	// lagging the window may re-execute. Pruning drains lazily, so an
	// expired id can linger up to one extra window — erring toward
	// suppression, never toward double execution. 0: keep forever.
	DedupRetention time.Duration
}

// DefaultConfig mirrors the paper's balanced deployment.
func DefaultConfig() Config {
	return Config{
		FlinkWorkers:   3,
		FnRuntimes:     3,
		Costs:          costmodel.Default(),
		DedupRetention: 30 * time.Second,
	}
}

// System is a deployed StateFun-model runtime.
type System struct {
	cfg      Config
	prog     *ir.Program
	executor *core.Executor

	brokerID string
	routerID string
	egressID string
	broker   *broker
	workers  []*flinkWorker
	fns      []*fnRuntime

	Log *queue.Log
}

// New builds and registers the deployment on a cluster.
func New(cluster *sim.Cluster, prog *ir.Program, cfg Config) *System {
	if cfg.FlinkWorkers <= 0 {
		cfg.FlinkWorkers = 1
	}
	if cfg.FnRuntimes <= 0 {
		cfg.FnRuntimes = 1
	}
	sys := &System{
		cfg:      cfg,
		prog:     prog,
		executor: core.NewExecutor(prog),
		brokerID: "kafka",
		routerID: "fl-router",
		egressID: "fl-egress",
		Log:      queue.NewLog(),
	}
	if err := sys.Log.CreateTopic(ingressTopic, cfg.FlinkWorkers); err != nil {
		panic(err)
	}
	if err := sys.Log.CreateTopic(egressTopic, 1); err != nil {
		panic(err)
	}
	sys.broker = &broker{sys: sys}
	cluster.Add(sys.brokerID, sys.broker)
	cluster.Add(sys.routerID, &router{sys: sys})
	cluster.Add(sys.egressID, &egress{sys: sys})
	for i := 0; i < cfg.FlinkWorkers; i++ {
		w := &flinkWorker{sys: sys, id: fmt.Sprintf("fl-worker-%d", i), states: state.NewStore(prog.Layouts())}
		sys.workers = append(sys.workers, w)
		cluster.Add(w.id, w)
	}
	for i := 0; i < cfg.FnRuntimes; i++ {
		f := &fnRuntime{sys: sys, id: fmt.Sprintf("fn-runtime-%d", i)}
		sys.fns = append(sys.fns, f)
		cluster.Add(f.id, f)
	}
	return sys
}

// IngressID implements sysapi.System: clients produce into the broker.
func (s *System) IngressID() string { return s.brokerID }

// ClientLink implements sysapi.System.
func (s *System) ClientLink() sim.Latency { return s.cfg.Costs.ClientLink }

// RegisterMetrics publishes the deployment's stats structs into a
// registry under "statefun.": the broker's, and the workers' and function
// runtimes' summed over their instances. The fields stay the canonical
// storage; the registry reads them at exposition time.
func (s *System) RegisterMetrics(reg *obs.Registry) {
	reg.Fields("statefun.broker.", func() any { return s.broker.brokerStats })
	reg.Fields("statefun.worker.", func() any {
		out := make([]workerStats, len(s.workers))
		for i, w := range s.workers {
			out[i] = w.workerStats
		}
		return out
	})
	reg.Fields("statefun.fn.", func() any {
		out := make([]fnStats, len(s.fns))
		for i, f := range s.fns {
			out[i] = f.fnStats
		}
		return out
	})
}

func (s *System) ownerOf(ref interp.EntityRef) *flinkWorker {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ref.Class))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(ref.Key))
	return s.workers[int(h.Sum32()%uint32(len(s.workers)))]
}

// KeyForCtor derives the routing key of a constructor call from its
// argument list.
func (s *System) KeyForCtor(class string, args []interp.Value) (string, error) {
	return s.executor.KeyForCtor(class, args)
}

// PreloadEntity runs __init__ synchronously and preloads the result.
func (s *System) PreloadEntity(class string, args ...interp.Value) error {
	ref, row, err := s.executor.InitRow(class, args)
	if err != nil {
		return err
	}
	s.ownerOf(ref).states.Put(ref, row)
	return nil
}

// EntityState reads an entity's state (test assertions).
func (s *System) EntityState(class, key string) (interp.MapState, bool) {
	ref := interp.EntityRef{Class: class, Key: key}
	st, ok := s.ownerOf(ref).states.Lookup(ref)
	if !ok {
		return nil, false
	}
	return st.CloneMap(), true
}

// Keys lists the keys of every entity of a class, sorted across all
// worker partitions.
func (s *System) Keys(class string) []string {
	var out []string
	for _, w := range s.workers {
		out = append(out, w.states.Keys(class)...)
	}
	sort.Strings(out)
	return out
}

// ChaosTopology implements sysapi.Backend: the baseline's failure
// contract, which is — faithfully to §3 — almost empty. The StateFun
// deployment model has no transactions, no failure detector and no
// replay-driven redelivery in this reproduction, so no role is crashable
// and no delivery may be dropped; the chaos engine clamps those fault
// classes off and reports it. What the baseline does tolerate is latency
// (no component keeps timers that a delay could violate) and duplicate
// deliveries of anything the egress dedupes by request id: egress-bound
// broker pushes and the client-bound responses themselves.
func (s *System) ChaosTopology() chaos.Topology {
	var workers, fns []string
	for _, w := range s.workers {
		workers = append(workers, w.id)
	}
	for _, f := range s.fns {
		fns = append(fns, f.id)
	}
	return chaos.Topology{
		Roles: map[string][]string{
			"broker": {s.brokerID},
			"router": {s.routerID},
			"egress": {s.egressID},
			"worker": workers,
			"fn":     fns,
		},
		Crashable: map[string]bool{},
		DupSafe: func(from, to string, msg sim.Message) bool {
			switch msg.(type) {
			case sysapi.MsgResponse:
				return true // clients dedupe by request id
			case sysapi.MsgRequest:
				return to == s.brokerID // ingress produce dedupes by request id
			case msgRecord:
				return to == s.egressID // egress dedupes by request id
			}
			return false
		},
		ResponseID: func(msg sim.Message) (string, bool) {
			if m, ok := msg.(sysapi.MsgResponse); ok {
				return m.Response.Req, true
			}
			return "", false
		},
		RequestID: func(msg sim.Message) (string, bool) {
			if m, ok := msg.(sysapi.MsgRequest); ok {
				return m.Request.Req, true
			}
			return "", false
		},
	}
}

var _ sysapi.Backend = (*System)(nil)

// ---------------------------------------------------------------------------
// Wire messages

// envelope is a dataflow event travelling through the broker and workers,
// together with the client reply address.
type envelope struct {
	Ev      *core.Event
	ReplyTo string
	Kind    string
}

// msgRecord is a broker push to a consumer.
type msgRecord struct {
	Env envelope
}

// msgFnRequest ships an event plus the entity's current state row to the
// remote function runtime.
type msgFnRequest struct {
	Env     envelope
	State   *interp.Row // copy of the entity state row (nil for __init__)
	Exists  bool
	Worker  string
	Ref     interp.EntityRef
	StBytes int
}

// msgFnResponse returns the state updates and the produced event.
type msgFnResponse struct {
	Ref     interp.EntityRef
	Writes  *interp.Row // full new state row (nil if no writes)
	Wrote   bool
	Out     envelope // the event the call produced, unless Err is set
	Err     string
	ReplyTo string
	Req     string
}

// ---------------------------------------------------------------------------
// Broker

// brokerStats are the broker's counters.
type brokerStats struct {
	// Produced counts records, as a load metric.
	Produced int
	// LateDuplicates counts arrivals the dedup floor absorbed.
	LateDuplicates int
}

// broker is the Kafka-model component: it appends produced records to the
// replayable log and pushes them to the subscribed consumer after the
// consumer-poll delay.
type broker struct {
	sys *System
	brokerStats
	// seen dedupes client request ids at the ingress produce (the
	// idempotent-producer model): a client retransmission or a duplicated
	// wire delivery must not become a second dataflow record — without
	// this, a retried in-flight request would execute twice. Bounded by
	// Config.DedupRetention like the StateFlow journal's records:
	// seen records each id's LATEST arrival (a duplicate refreshes the
	// window, so a still-retrying in-flight request is never evicted mid
	// flight), and seenOrder drains FIFO with lazy re-arming — an entry
	// whose id was refreshed since its append re-enters the queue at its
	// new time instead of being evicted. O(1) amortized per arrival;
	// re-arming can leave the queue unsorted, so an expired id may
	// linger behind a younger head up to one extra window (suppression
	// errs conservative; the bound on the set size is unaffected).
	seen      map[string]time.Duration
	seenOrder []seenEntry
	// floors records, per request-id source (sysapi.SplitID), the highest
	// sequence number pruneSeen ever retired: an arrival at or below its
	// source's floor is a very late duplicate of an already-answered
	// request and is absorbed instead of re-produced. Closes the same
	// duplicate-after-retention hole the StateFlow coordinator closes
	// with its durable dedup floors.
	floors map[string]int64
}

// seenEntry is one ingress dedup record awaiting retention expiry.
type seenEntry struct {
	id string
	at time.Duration
}

// pruneSeen retires dedup entries whose latest arrival fell off the
// retention window.
func (b *broker) pruneSeen(now time.Duration) {
	retention := b.sys.cfg.DedupRetention
	if retention <= 0 {
		return
	}
	for len(b.seenOrder) > 0 && b.seenOrder[0].at+retention <= now {
		e := b.seenOrder[0]
		b.seenOrder = b.seenOrder[1:]
		if last, ok := b.seen[e.id]; ok && last+retention > now {
			// A duplicate refreshed this id after the entry was queued:
			// re-arm at the refreshed time (unexpired, so the loop
			// cannot revisit it this pass).
			b.seenOrder = append(b.seenOrder, seenEntry{id: e.id, at: last})
			continue
		}
		if src, seq, ok := sysapi.SplitID(e.id); ok {
			if b.floors == nil {
				b.floors = map[string]int64{}
			}
			if cur, has := b.floors[src]; !has || seq > cur {
				b.floors[src] = seq
			}
		}
		delete(b.seen, e.id)
	}
}

// OnMessage implements sim.Handler.
func (b *broker) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	switch m := msg.(type) {
	case sysapi.MsgRequest:
		if b.seen == nil {
			b.seen = map[string]time.Duration{}
		}
		b.pruneSeen(ctx.Now())
		if _, dup := b.seen[m.Request.Req]; dup {
			// Duplicate send; already in the ingress topic. Refresh the
			// window: an in-flight retry must never age out of the set.
			b.seen[m.Request.Req] = ctx.Now()
			return
		}
		if src, seq, ok := sysapi.SplitID(m.Request.Req); ok {
			if floor, pruned := b.floors[src]; pruned && seq <= floor {
				b.LateDuplicates++
				return // very late duplicate: original answered and pruned
			}
		}
		b.seen[m.Request.Req] = ctx.Now()
		b.seenOrder = append(b.seenOrder, seenEntry{id: m.Request.Req, at: ctx.Now()})
		// Client produce into the ingress topic.
		b.produce(ctx, ingressTopic, envelope{
			Ev: &core.Event{
				Kind:   core.EvInvoke,
				Req:    m.Request.Req,
				Target: m.Request.Target,
				Method: m.Request.Method,
				Args:   m.Request.Args,
			},
			ReplyTo: m.ReplyTo,
			Kind:    m.Request.Kind,
		})
	case envelope:
		// Worker produce (chaining or egress).
		topic := ingressTopic
		if m.Ev.Kind == core.EvResponse {
			topic = egressTopic
		}
		b.produce(ctx, topic, m)
	}
}

func (b *broker) produce(ctx *sim.Context, topic string, env envelope) {
	costs := b.sys.cfg.Costs
	ctx.Work(costs.BrokerCPU)
	key := env.Ev.Target.Key
	if _, _, err := b.sys.Log.Produce(topic, key, env); err != nil {
		return
	}
	b.Produced++
	// Push to the consumer after the poll delay.
	switch topic {
	case ingressTopic:
		ctx.Send(b.sys.routerID, msgRecord{Env: env},
			costs.BrokerPoll.Sample(ctx.Rand()))
	case egressTopic:
		ctx.Send(b.sys.egressID, msgRecord{Env: env},
			costs.BrokerPoll.Sample(ctx.Rand()))
	}
}

// ---------------------------------------------------------------------------
// Router (ingress keyBy)

type router struct {
	sys *System
}

// OnMessage implements sim.Handler.
func (r *router) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	m, ok := msg.(msgRecord)
	if !ok {
		return
	}
	costs := r.sys.cfg.Costs
	ctx.Work(costs.RoutingCPU)
	w := r.sys.ownerOf(m.Env.Ev.Target)
	ctx.Send(w.id, m.Env, costs.WorkerLink.Sample(ctx.Rand()))
}

// ---------------------------------------------------------------------------
// Egress router

type egress struct {
	sys *System
	// Delivered dedupes per request id.
	delivered map[string]bool
}

// OnMessage implements sim.Handler.
func (e *egress) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	m, ok := msg.(msgRecord)
	if !ok {
		return
	}
	costs := e.sys.cfg.Costs
	ctx.Work(costs.RoutingCPU)
	if e.delivered == nil {
		e.delivered = map[string]bool{}
	}
	ev := m.Env.Ev
	if e.delivered[ev.Req] || m.Env.ReplyTo == "" {
		return
	}
	e.delivered[ev.Req] = true
	ctx.Send(m.Env.ReplyTo, sysapi.MsgResponse{Response: sysapi.Response{
		Req: ev.Req, Value: ev.Value, Err: ev.Err,
	}}, costs.ClientLink.Sample(ctx.Rand()))
}

// ---------------------------------------------------------------------------
// Flink worker (stateful map operator partitions)

type flinkWorker struct {
	sys      *System
	id       string
	states   *state.Store
	rr       int
	inflight map[interp.EntityRef]int
	workerStats
}

// workerStats are a Flink worker's counters.
type workerStats struct {
	// Races counts state write-backs that overwrote a version the
	// function never saw (lost-update hazard observable in tests).
	Races int
}

// OnMessage implements sim.Handler.
func (w *flinkWorker) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	switch m := msg.(type) {
	case envelope:
		w.onEvent(ctx, m)
	case msgFnResponse:
		w.onFnResponse(ctx, m)
	}
}

// onEvent ships the target entity's state with the event to a remote
// function runtime. No locking: if another chain is mid-flight on the same
// key, both read the same state version (§3's race condition).
func (w *flinkWorker) onEvent(ctx *sim.Context, env envelope) {
	costs := w.sys.cfg.Costs
	ctx.Work(costs.DeserializeCPU)
	ref := env.Ev.Target
	st, exists := w.states.Lookup(ref)
	var cp *interp.Row
	bytes := 0
	if exists {
		bytes = st.EncodedSize()
		ctx.Work(costs.StateCPU(bytes))
		cp = st.Clone()
	}
	if w.inflight == nil {
		w.inflight = map[interp.EntityRef]int{}
	}
	w.inflight[ref]++
	if w.inflight[ref] > 1 {
		w.Races++ // concurrent unlocked access to the same key
	}
	fn := w.sys.fns[w.rr%len(w.sys.fns)]
	w.rr++
	ctx.Send(fn.id, msgFnRequest{
		Env: env, State: cp, Exists: exists, Worker: w.id, Ref: ref, StBytes: bytes,
	}, costs.RemoteFn.Sample(ctx.Rand()))
}

// onFnResponse applies returned state and forwards produced events through
// the broker.
func (w *flinkWorker) onFnResponse(ctx *sim.Context, m msgFnResponse) {
	costs := w.sys.cfg.Costs
	if w.inflight != nil && w.inflight[m.Ref] > 0 {
		w.inflight[m.Ref]--
	}
	if m.Wrote && m.Err == "" {
		ctx.Work(costs.StateCPU(m.Writes.EncodedSize()))
		w.states.Put(m.Ref, m.Writes)
	}
	if m.Err != "" {
		// Fail the chain directly to egress via the broker.
		env := envelope{
			Ev:      &core.Event{Kind: core.EvResponse, Req: m.Req, Err: m.Err},
			ReplyTo: m.ReplyTo,
		}
		ctx.Send(w.sys.brokerID, env, costs.BrokerLink.Sample(ctx.Rand()))
		return
	}
	// Chaining and egress alike go back through the broker (§3).
	ctx.Send(w.sys.brokerID, m.Out, costs.BrokerLink.Sample(ctx.Rand()))
}

// ---------------------------------------------------------------------------
// Remote function runtime

type fnRuntime struct {
	sys *System
	id  string
	fnStats
}

// fnStats are a function runtime's counters.
type fnStats struct {
	// Invocations counts function executions.
	Invocations int
}

// shippedStore adapts the shipped single-entity state row to core.Store.
type shippedStore struct {
	ref    interp.EntityRef
	st     *interp.Row
	exists bool
	wrote  *bool
}

// Lookup implements core.Store.
func (s shippedStore) Lookup(ref interp.EntityRef) (interp.State, bool) {
	if ref != s.ref || !s.exists {
		return nil, false
	}
	return trackState{row: s.st, wrote: s.wrote}, true
}

// Create implements core.Store: the constructor fills the shipped row, which
// goes back to the worker as a write only if the constructor succeeds.
func (s shippedStore) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	if ref != s.ref {
		return fmt.Errorf("statefun: create %s routed to partition of %s", ref, s.ref)
	}
	if s.exists {
		return fmt.Errorf("entity %s already exists", ref)
	}
	if err := ctor(s.st); err != nil {
		return err
	}
	*s.wrote = true
	return nil
}

// trackState wraps the shipped row, flagging writes so the worker knows
// whether to install the returned state.
type trackState struct {
	row   *interp.Row
	wrote *bool
}

// GetSlot implements interp.State.
func (t trackState) GetSlot(slot int) (interp.Value, bool) { return t.row.GetSlot(slot) }

// SetSlot implements interp.State.
func (t trackState) SetSlot(slot int, v interp.Value) {
	*t.wrote = true
	t.row.SetSlot(slot, v)
}

// Interface check.
var _ interp.State = trackState{}

// OnMessage implements sim.Handler.
func (f *fnRuntime) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	m, ok := msg.(msgFnRequest)
	if !ok {
		return
	}
	costs := f.sys.cfg.Costs
	f.Invocations++

	// Deserialize shipped state + construct the entity object.
	ctx.Work(costs.ConstructCPU + costs.StateCPU(m.StBytes))
	ctx.Work(costs.SplitOverhead)

	st := m.State
	if st == nil {
		st = interp.NewRow(f.sys.prog.Layouts().LayoutOf(m.Ref.Class))
	}
	var wrote bool
	store := shippedStore{ref: m.Ref, st: st, exists: m.Exists, wrote: &wrote}
	out, err := f.sys.executor.Step(m.Env.Ev, store)
	ctx.Work(costs.ExecuteCPU)

	resp := msgFnResponse{
		Ref: m.Ref, ReplyTo: m.Env.ReplyTo, Req: m.Env.Ev.Req,
		Wrote: wrote,
	}
	if wrote {
		resp.Writes = st
	}
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.Out = envelope{Ev: &out, ReplyTo: m.Env.ReplyTo, Kind: m.Env.Kind}
	}
	ctx.Send(m.Worker, resp, costs.RemoteFn.Sample(ctx.Rand()))
}

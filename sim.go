package stateflow

import (
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/sim"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/statefun"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// Backend selects which distributed runtime a Simulation deploys.
type Backend string

// Available backends.
const (
	// BackendStateFlow deploys the transactional StateFlow runtime.
	BackendStateFlow Backend = "stateflow"
	// BackendStateFun deploys the Flink-StateFun-model baseline.
	BackendStateFun Backend = "statefun"
)

// SimConfig parameterizes a Simulation.
type SimConfig struct {
	Backend Backend
	// Workers is the StateFlow worker count (default 5) or, for the
	// baseline, the Flink worker count (default 3; the baseline also gets
	// an equal number of remote function runtimes).
	Workers int
	// Epoch is StateFlow's transaction batch interval (default 5ms).
	Epoch time.Duration
	// SnapshotEvery takes a StateFlow snapshot after every N batches
	// (default 0: only the preload checkpoint).
	SnapshotEvery int
	// Seed makes the simulation deterministic (default 1).
	Seed int64
	// Shards partitions the entity space across this many independent
	// coordinator+worker groups, fronted by a thin global sequencing
	// layer: single-shard transactions go straight to their shard,
	// cross-shard transactions order through fenced global batches. 0 or
	// 1 deploys the classic single-coordinator topology — byte-identical
	// to a deployment without this field. StateFlow backend only.
	Shards int
	// FullFences forces the sequencer's historical schedule in which
	// every global batch fences every shard instead of just the batch's
	// footprint. Kept as the reference schedule of scoped_diff_test.go
	// and of TestGateScopedFences (internal/bench); no effect unless
	// Shards > 1.
	FullFences bool
	// DisableFallback turns off the StateFlow backend's Aria fallback
	// phase: conflict-aborted transactions then retry in the next batch
	// instead of re-executing deterministically inside the current one.
	// Kept for A/B benchmarking and differential tests; no effect on the
	// baseline backend.
	DisableFallback bool
	// DisablePipelining forces the StateFlow backend's serial epoch
	// schedule: each epoch fully commits (and fsyncs) before the next one
	// opens. With pipelining on (the default), two epochs run in flight —
	// epoch N+1 opens and executes while N validates, applies and
	// group-commits, and N+1's epoch-advance record rides N's fsync. Kept
	// for A/B benchmarking and differential tests; no effect on the
	// baseline backend.
	DisablePipelining bool
	// TraceCommits turns on the StateFlow coordinator's commit-order tap
	// (see Simulation.CommitSerials): every committed request records its
	// position in the effective serial order. The linearizability checker
	// consumes it; the map grows with the run, so leave it off elsewhere.
	// No effect on the baseline backend.
	TraceCommits bool
	// ClientRetry is the client-edge retransmission interval: a submitted
	// request whose response has not arrived after this much virtual time
	// is re-sent (same request id — the ingress dedupes in-flight copies
	// and the StateFlow egress re-serves already-answered ones from its
	// durable buffer). This is what makes client-edge message drops
	// survivable. 0 selects the 50ms default; negative disables retries.
	ClientRetry time.Duration
	// Tracer, when non-nil, records per-transaction phase spans (ingress
	// queue, execute, validate, fallback rounds, group-commit fsync, and
	// the cross-shard fence/execute/apply/unfence cycle) on the StateFlow
	// backend, exportable as Chrome trace-event JSON via Tracer.WriteJSON.
	// Tracing is deterministically inert: it never touches the simulation
	// RNG or schedules work, so a traced run's transcripts and committed
	// state are byte-identical to an untraced one, and two traced runs of
	// the same seed emit byte-identical traces.
	Tracer *Tracer
}

// DefaultClientRetry is the client retransmission interval used when
// SimConfig.ClientRetry is zero. Retries are capped per request (see
// sysapi.Retransmitter) so an unresolvable request cannot keep a drained
// simulation alive forever.
const DefaultClientRetry = 50 * time.Millisecond

// Simulation is a deployed distributed runtime on the deterministic
// cluster simulator. Client() returns its portable caller surface; a
// Call drives virtual time until the response returns, a Submit returns
// a Future resolved as virtual time advances. The Simulation and
// everything derived from it are single-threaded.
type Simulation struct {
	Cluster *sim.Cluster
	kind    Backend
	sf      *sfsys.ShardedSystem
	sfu     *statefun.System
	// sys is the deployed runtime behind one facade: all dispatch that
	// used to branch on the backend goes through it.
	sys     sysapi.Backend
	client  *simClient
	reqs    *sysapi.Builder
	api     *simulationClient
	chaos   *chaos.Engine
	tracer  *Tracer
	flight  *FlightRecorder
	metrics *MetricsRegistry
	started bool
}

// simClient is the sim.Handler that records responses on the cluster's
// client edge and drives client-side retransmission (one shared
// sysapi.Retransmitter state machine): a request without a response
// after the retry interval is re-sent with the same id, so a dropped
// request (the ingress dedupes) or a dropped response (the egress
// replays) heals instead of hanging.
type simClient struct {
	rx    sysapi.Retransmitter
	calls map[string]clientCall
	// deliveries counts raw response deliveries per request id, before
	// deduplication (the exactly-once-output evidence chaos tests check).
	deliveries map[string]int
}

// clientCall is the client edge's record of one request: when it was sent
// and, once answered, its first response and latency. It stays at most 128
// bytes, so a map stores it inline (TestClientRecordIsCompact).
type clientCall struct {
	sent, latency time.Duration
	resp          sysapi.Response
	answered      bool
}

// msgClientSubmit asks the client component to transmit a fresh request.
type msgClientSubmit struct{ req sysapi.Request }

// OnMessage implements sim.Handler.
func (c *simClient) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if c.rx.Handle(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case msgClientSubmit:
		c.rx.Send(ctx, m.req)
	case sysapi.MsgResponse:
		id := m.Response.Req
		c.deliveries[id]++
		call, ok := c.calls[id]
		if call.answered {
			return
		}
		call.resp, call.answered = m.Response, true
		if ok {
			call.latency = ctx.Now() - call.sent
		}
		c.calls[id] = call
	}
}

// NewSimulation builds a simulated deployment of a compiled program.
// Options extend the plain SimConfig: WithChaos installs a deterministic
// fault plan on the cluster before anything runs.
func NewSimulation(prog *Program, cfg SimConfig, opts ...SimOption) *Simulation {
	if cfg.Backend == "" {
		cfg.Backend = BackendStateFlow
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	retryEvery := cfg.ClientRetry
	if retryEvery == 0 {
		retryEvery = DefaultClientRetry
	}
	cluster := sim.New(cfg.Seed)
	// Every simulation carries a flight recorder: the ring is cheap, and a
	// chaos failure with no timeline attached is a debugging dead end.
	flight := NewFlightRecorder(0)
	cluster.SetFlightRecorder(flight)
	s := &Simulation{
		Cluster: cluster,
		kind:    cfg.Backend,
		tracer:  cfg.Tracer,
		flight:  flight,
		client: &simClient{
			rx:         sysapi.Retransmitter{ReplyTo: "api-client", Every: retryEvery, Retries: map[string]int{}},
			calls:      map[string]clientCall{},
			deliveries: map[string]int{},
		},
		reqs: sysapi.NewBuilder("api-"),
	}
	s.api = &simulationClient{s: s}
	switch cfg.Backend {
	case BackendStateFlow:
		c := sfsys.DefaultConfig()
		if cfg.Workers > 0 {
			c.Workers = cfg.Workers
		}
		if cfg.Epoch > 0 {
			c.EpochInterval = cfg.Epoch
		}
		c.SnapshotEvery = cfg.SnapshotEvery
		c.DisableFallback = cfg.DisableFallback
		c.DisablePipelining = cfg.DisablePipelining
		c.TraceCommits = cfg.TraceCommits
		c.Tracer = cfg.Tracer
		c.Flight = flight
		c.Shards = cfg.Shards
		c.FullFences = cfg.FullFences
		// Shards <= 1 takes the exact single-coordinator construction path
		// (New deploys one classic group and no sequencer), so an unsharded
		// config stays byte-identical to every pre-sharding transcript.
		s.sf = sfsys.New(cluster, prog, c)
		s.sys = s.sf
	case BackendStateFun:
		c := statefun.DefaultConfig()
		if cfg.Workers > 0 {
			c.FlinkWorkers = cfg.Workers
			c.FnRuntimes = cfg.Workers
		}
		s.sfu = statefun.New(cluster, prog, c)
		s.sys = s.sfu
	default:
		panic(fmt.Sprintf("stateflow: unknown backend %q", cfg.Backend))
	}
	s.client.rx.Sys = s.sys
	cluster.Add("api-client", s.client)
	if o.chaos != nil {
		s.chaos = chaos.Install(cluster, s.sys.ChaosTopology(), *o.chaos)
	}
	return s
}

// Client returns the Simulation's portable caller surface.
func (s *Simulation) Client() Client { return s.api }

// Backend reports which runtime the Simulation deployed.
func (s *Simulation) Backend() Backend { return s.kind }

// StateFlow returns the sole coordinator group of an unsharded StateFlow
// deployment (nil for the baseline backend and for sharded deployments —
// see Sharded).
func (s *Simulation) StateFlow() *sfsys.System {
	if s.sf == nil {
		return nil
	}
	return s.sf.Single()
}

// Sharded returns the StateFlow deployment, sharded or not (nil for the
// baseline backend): Shards() lists its coordinator groups — one when
// unsharded — and Sequencer() is nil unless SimConfig.Shards > 1.
func (s *Simulation) Sharded() *sfsys.ShardedSystem { return s.sf }

// StateFun returns the underlying baseline system (nil for StateFlow).
func (s *Simulation) StateFun() *statefun.System { return s.sfu }

// Tracer returns the trace buffer attached via SimConfig.Tracer (nil
// when tracing is off). Export it with Tracer.WriteJSON.
func (s *Simulation) Tracer() *Tracer { return s.tracer }

// FlightRecorder returns the simulation's cluster-event ring: crashes,
// reboots, epoch advances, fences and replay decisions, in virtual-time
// order. It is always recording; chaos and linearizability failures
// dump it alongside the seed and plan.
func (s *Simulation) FlightRecorder() *FlightRecorder { return s.flight }

// Metrics returns a registry exposing the deployed backend's counters
// (and the durable log's, when one is configured) under stable dotted
// names. Built on first use; reading the registry is side-effect-free.
func (s *Simulation) Metrics() *MetricsRegistry {
	if s.metrics == nil {
		s.metrics = NewMetricsRegistry()
		switch {
		case s.sf != nil:
			s.sf.RegisterMetrics(s.metrics)
		case s.sfu != nil:
			s.sfu.RegisterMetrics(s.metrics)
		}
	}
	return s.metrics
}

// CommitSerials returns the StateFlow coordinator's commit-order tap
// (request id → position in the effective serial order the surviving
// state was built in). A read-only call a client retry re-executed is
// placed by the answer the client kept. Empty unless
// SimConfig.TraceCommits is set; nil on the baseline backend, which has no
// coordinator — a checker driving the baseline falls back to graph mode.
func (s *Simulation) CommitSerials() map[string]int64 {
	if sys := s.StateFlow(); sys != nil {
		return sys.Coordinator().CommitSerials(func(id string) (Value, bool) {
			call := s.client.calls[id]
			return call.resp.Value, call.answered
		})
	}
	return nil
}

// Preload installs an entity built by __init__ with the given args,
// bypassing the dataflow. Must be called before the first Call.
func (s *Simulation) Preload(class string, args ...Value) error {
	if s.started {
		return fmt.Errorf("stateflow: Preload after simulation start")
	}
	return s.sys.PreloadEntity(class, args...)
}

func (s *Simulation) ensureStarted() {
	if !s.started {
		if s.sf != nil {
			s.sf.CheckpointPreloadedState()
		}
		s.Cluster.Start()
		s.started = true
	}
}

// inject assembles a request and hands it to the client-edge component,
// which transmits it over the edge link and owns its retransmission
// timer. Calls and Futures share this path.
func (s *Simulation) inject(ref EntityRef, method string, args []Value, kind string) string {
	s.ensureStarted()
	req := s.reqs.Next(ref, method, args, kind)
	s.client.calls[req.Req] = clientCall{sent: s.Cluster.Now()}
	s.Cluster.Inject(s.Cluster.Now(), "api-client", "api-client", msgClientSubmit{req: req})
	return req.Req
}

// await advances virtual time in patience-sized steps until the response
// to id arrives or the timeout budget runs out.
func (s *Simulation) await(id string, o callOptions) (Result, error) {
	deadline := s.Cluster.Now() + o.timeout
	for {
		if res, ok := s.lookup(id); ok {
			return res, nil
		}
		if s.Cluster.Now() >= deadline {
			return Result{}, fmt.Errorf("stateflow: request %s timed out after %s of virtual time", id, o.timeout)
		}
		step := o.patience
		if rem := deadline - s.Cluster.Now(); rem < step {
			step = rem
		}
		s.Cluster.RunUntil(s.Cluster.Now() + step)
	}
}

// lookup reads a recorded response without advancing time.
func (s *Simulation) lookup(id string) (Result, bool) {
	call := s.client.calls[id]
	if !call.answered {
		return Result{}, false
	}
	resp := call.resp
	return Result{
		Value: resp.Value, Err: resp.Err, Retries: resp.Retries,
		Latency: call.latency,
	}, true
}

// Run advances virtual time unconditionally (e.g. to let submitted
// requests race each other, or background work such as snapshots
// complete).
func (s *Simulation) Run(d time.Duration) {
	s.ensureStarted()
	s.Cluster.RunUntil(s.Cluster.Now() + d)
}

// ---------------------------------------------------------------------------
// Client implementation

// simulationClient implements Client/Admin/caller over a Simulation.
type simulationClient struct{ s *Simulation }

// Entity implements Client.
func (c *simulationClient) Entity(class, key string) *Entity { return newEntity(c, class, key) }

// Create implements Client.
func (c *simulationClient) Create(class string, args ...Value) (*Entity, error) {
	return createVia(c, c.s.sys.KeyForCtor, class, args)
}

// Admin implements Client.
func (c *simulationClient) Admin() Admin { return c }

// Close implements Client (no-op: the simulation owns no real resources).
func (c *simulationClient) Close() error { return nil }

func (c *simulationClient) call(ref EntityRef, method string, args []Value, o callOptions) (Result, error) {
	id := c.s.inject(ref, method, args, o.kind)
	return c.s.await(id, o)
}

func (c *simulationClient) submit(ref EntityRef, method string, args []Value, o callOptions) *Future {
	id := c.s.inject(ref, method, args, o.kind)
	poll := func() (Result, error, bool) {
		res, ok := c.s.lookup(id)
		return res, nil, ok
	}
	wait := func() (Result, error) { return c.s.await(id, o) }
	f := newFuture(ref, method, poll, wait)
	f.id = id
	return f
}

// Inspect implements Admin.
func (c *simulationClient) Inspect(class, key string) (map[string]Value, bool) {
	st, ok := c.s.sys.EntityState(class, key)
	return st, ok
}

// Keys implements Admin.
func (c *simulationClient) Keys(class string) []string { return c.s.sys.Keys(class) }

// Preload implements Admin.
func (c *simulationClient) Preload(class string, args ...Value) error {
	return c.s.Preload(class, args...)
}

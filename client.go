package stateflow

import (
	"context"
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/runtime/live"
	"statefulentities.dev/stateflow/internal/runtime/local"
)

// Result is the full outcome of one invocation, portable across runtimes.
type Result struct {
	Value Value
	// Err is the application-level failure (empty on success).
	Err string
	// Retries is the abort/retry count on transactional runtimes.
	Retries int
	// Latency is the request's end-to-end latency: virtual time on
	// simulations, wall clock on Live, zero on the synchronous Local
	// runtime.
	Latency time.Duration
	// Hops counts operator-to-operator event transfers (Local runtime
	// only; zero elsewhere). A continuation that reads no entity state runs
	// where its call returned and adds no hop.
	Hops int
}

// Client is the one portable caller surface over every runtime: stateful
// entities look like ordinary objects to a caller outside the system
// (§2.3), regardless of whether the system is the synchronous Local
// runtime, a simulated distributed deployment, or the concurrent Live
// runtime. Workloads, examples and benchmarks written against Client run
// unchanged on any backend.
type Client interface {
	// Entity returns a typed handle on one stateful-entity instance.
	Entity(class, key string) *Entity
	// Create instantiates an entity through the dataflow (its __init__
	// runs as a root invocation) and returns its handle.
	Create(class string, args ...Value) (*Entity, error)
	// Admin exposes the out-of-band surface: state introspection and
	// dataset preloading.
	Admin() Admin
	// Close releases the runtime's resources. It is a no-op for Local and
	// Simulation; for Live it stops the workers and fails every pending
	// future with a "runtime closed" error.
	Close() error
}

// Admin is the out-of-band management surface shared by all runtimes.
type Admin interface {
	// Inspect reads a copy of an entity's committed attributes.
	Inspect(class, key string) (map[string]Value, bool)
	// Keys lists the keys of every entity of a class, sorted.
	Keys(class string) []string
	// Preload loads an entity with the state __init__ would produce for
	// the given args. On simulations it installs state directly on the
	// owning worker and must precede the first call; on Local and Live it
	// is always available.
	Preload(class string, args ...Value) error
}

// caller is the backend hook behind Entity handles.
type caller interface {
	call(ref EntityRef, method string, args []Value, o callOptions) (Result, error)
	submit(ref EntityRef, method string, args []Value, o callOptions) *Future
}

// Entity is a typed handle on one stateful-entity instance. Handles are
// cheap, stateless values: create them per call or keep them around.
type Entity struct {
	c    caller
	ref  EntityRef
	opts callOptions
}

// Ref returns the entity's (class, key) reference.
func (e *Entity) Ref() EntityRef { return e.ref }

// Class returns the entity's class name.
func (e *Entity) Class() string { return e.ref.Class }

// Key returns the entity's key.
func (e *Entity) Key() string { return e.ref.Key }

// RefValue returns the entity's reference as a DSL value, for passing the
// entity as a call argument.
func (e *Entity) RefValue() Value { return Ref(e.ref.Class, e.ref.Key) }

// With returns a derived handle whose calls use the given options.
func (e *Entity) With(opts ...CallOption) *Entity {
	d := *e
	d.opts = e.opts.apply(opts)
	return &d
}

// Call invokes a method and waits for its full outcome. The error is
// transport-level (timeout, shutdown, internal failure); application
// failures travel in Result.Err.
func (e *Entity) Call(method string, args ...Value) (Result, error) {
	return e.c.call(e.ref, method, args, e.opts)
}

// Submit invokes a method without waiting and returns its Future. Use it
// to race concurrent requests against each other.
func (e *Entity) Submit(method string, args ...Value) *Future {
	return e.c.submit(e.ref, method, args, e.opts)
}

// newEntity builds a handle with default options.
func newEntity(c caller, class, key string) *Entity {
	return &Entity{c: c, ref: EntityRef{Class: class, Key: key}, opts: defaultCallOptions()}
}

// createVia runs __init__ through any caller and converts an application
// failure into a transport error (a handle on a failed construction would
// be useless).
func createVia(c caller, keyFor func(class string, args []Value) (string, error), class string, args []Value) (*Entity, error) {
	key, err := keyFor(class, args)
	if err != nil {
		return nil, err
	}
	e := newEntity(c, class, key)
	res, err := e.Call("__init__", args...)
	if err != nil {
		return nil, err
	}
	if res.Err != "" {
		return nil, fmt.Errorf("%s", res.Err)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Local client

// NewLocalClient builds a Local runtime for a compiled program and returns
// its Client surface.
func NewLocalClient(prog *Program) Client { return LocalClient(local.New(prog)) }

// LocalClient adapts an existing Local runtime to the Client interface.
func LocalClient(rt *Local) Client { return &localClient{rt: rt} }

type localClient struct{ rt *local.Runtime }

// Entity implements Client.
func (c *localClient) Entity(class, key string) *Entity { return newEntity(c, class, key) }

// Create implements Client.
func (c *localClient) Create(class string, args ...Value) (*Entity, error) {
	ref, err := c.rt.Create(class, args...)
	if err != nil {
		return nil, err
	}
	return newEntity(c, ref.Class, ref.Key), nil
}

// Admin implements Client.
func (c *localClient) Admin() Admin { return c }

// Close implements Client (no-op: the Local runtime holds no resources).
func (c *localClient) Close() error { return nil }

func (c *localClient) call(ref EntityRef, method string, args []Value, _ callOptions) (Result, error) {
	res, err := c.rt.Invoke(ref.Class, ref.Key, method, args...)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: res.Value, Err: res.Err, Hops: res.Hops}, nil
}

func (c *localClient) submit(ref EntityRef, method string, args []Value, o callOptions) *Future {
	res, err := c.call(ref, method, args, o)
	return completedFuture(ref, method, res, err)
}

// Inspect implements Admin.
func (c *localClient) Inspect(class, key string) (map[string]Value, bool) {
	st, ok := c.rt.State(class, key)
	return st, ok
}

// Keys implements Admin.
func (c *localClient) Keys(class string) []string { return c.rt.Keys(class) }

// Preload implements Admin.
func (c *localClient) Preload(class string, args ...Value) error {
	return c.rt.PreloadEntity(class, args...)
}

// ---------------------------------------------------------------------------
// Live client

// Live is the concurrent in-process runtime: worker goroutines own hash
// partitions of entity state and exchange dataflow events over channels.
type Live = live.Runtime

// LiveConfig parameterizes the Live runtime (see live.Config for its
// fields).
type LiveConfig = live.Config

// NewLive starts a Live runtime for a compiled program. Close it when
// done. It panics if the configured journal cannot be opened; use
// OpenLive to handle that error (without a JournalPath it cannot fail).
func NewLive(prog *Program, cfg LiveConfig) *Live {
	rt, err := OpenLive(prog, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// OpenLive starts a Live runtime, recovering the response journal when
// one is configured.
func OpenLive(prog *Program, cfg LiveConfig) (*Live, error) {
	return live.Open(prog, cfg)
}

// NewLiveClient starts a Live runtime and returns its Client surface;
// Close stops the runtime. Like NewLive it panics on a journal open
// failure; use OpenLiveClient to handle it.
func NewLiveClient(prog *Program, cfg LiveConfig) Client { return LiveClient(NewLive(prog, cfg)) }

// OpenLiveClient starts a Live runtime with error handling for the
// journal and returns its Client surface.
func OpenLiveClient(prog *Program, cfg LiveConfig) (Client, error) {
	rt, err := OpenLive(prog, cfg)
	if err != nil {
		return nil, err
	}
	return LiveClient(rt), nil
}

// LiveClient adapts an existing Live runtime to the Client interface.
func LiveClient(rt *Live) Client { return &liveClient{rt: rt} }

type liveClient struct{ rt *live.Runtime }

// Entity implements Client.
func (c *liveClient) Entity(class, key string) *Entity { return newEntity(c, class, key) }

// Create implements Client.
func (c *liveClient) Create(class string, args ...Value) (*Entity, error) {
	ref, err := c.rt.Create(class, args...)
	if err != nil {
		return nil, err
	}
	return newEntity(c, ref.Class, ref.Key), nil
}

// Admin implements Client.
func (c *liveClient) Admin() Admin { return c }

// Close implements Client: stops the workers and fails pending futures.
func (c *liveClient) Close() error {
	c.rt.Close()
	return nil
}

func (c *liveClient) call(ref EntityRef, method string, args []Value, o callOptions) (Result, error) {
	return c.submit(ref, method, args, o).Wait()
}

func (c *liveClient) submit(ref EntityRef, method string, args []Value, o callOptions) *Future {
	start := time.Now()
	p := c.rt.SubmitWithID(o.requestID, ref.Class, ref.Key, method, args...)
	poll := func() (Result, error, bool) {
		if !p.Done() {
			return Result{}, nil, false
		}
		res, err := liveOutcome(p, start, nil)
		return res, err, true
	}
	wait := func() (Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		return liveOutcome(p, start, ctx)
	}
	return newFuture(ref, method, poll, wait)
}

// liveOutcome folds a Pending's completion into a Result. With a nil
// context the Pending must already be done. Latency runs from submission
// to the request's completion stamp — not to whenever the caller got
// around to collecting the future.
func liveOutcome(p *live.Pending, start time.Time, ctx context.Context) (Result, error) {
	var v Value
	var errStr string
	var fail error
	if ctx == nil {
		v, errStr, fail = p.Wait()
	} else {
		v, errStr, fail = p.WaitContext(ctx)
	}
	if fail != nil {
		return Result{}, fmt.Errorf("stateflow: request %s: %w", p.Req(), fail)
	}
	return Result{Value: v, Err: errStr, Latency: p.DoneAt().Sub(start)}, nil
}

// Inspect implements Admin.
func (c *liveClient) Inspect(class, key string) (map[string]Value, bool) {
	st, ok := c.rt.EntityState(class, key)
	return st, ok
}

// Keys implements Admin.
func (c *liveClient) Keys(class string) []string { return c.rt.Keys(class) }

// Preload implements Admin.
func (c *liveClient) Preload(class string, args ...Value) error {
	return c.rt.PreloadEntity(class, args...)
}

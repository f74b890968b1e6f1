// Package core implements the engine-independent operator logic of
// stateful entities: given an incoming event (a method invocation or the
// return value of a suspended call) and access to the local partition's
// state, it drives the method's execution state machine (§2.5) until the
// method either completes — producing a response event for the caller or
// the egress router — or suspends at a remote call, producing an
// invocation event for another operator (§2.3, §2.4). When a call returns
// into a continuation the compiler marked StateFree (it reads no entity
// state), that continuation runs in the callee's event instead of costing a
// resume hop back to the caller's operator (complete).
//
// Step turns one event into exactly one event, returned by value. A call
// chain allocates once, not per step or per activation: its context holds
// its first two frames and a small value arena that their slots and each
// call's arguments live in (see Context). StepIn builds a root call's
// context in storage its caller keeps, and then the chain allocates nothing.
//
// Every runtime (local, StateFlow, StateFun-model) wraps this package with
// its own transport, scheduling, consistency and fault-tolerance layers;
// the execution semantics live here exactly once.
package core

import (
	"fmt"
	"strconv"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
)

// Frame is one suspended method activation inside an execution context.
// It holds the compiled method itself and the slot its pending call
// returns into, so resuming and suspending it resolve no name.
type Frame struct {
	Ref    interp.EntityRef // entity executing the method
	Method *ir.Method
	Block  ir.BlockID // block to run when the frame (re)gains control
	Env    interp.Frame
	// Result is the pending call's 1-based result slot in Env
	// (ir.Invoke.Result); 0 discards the returned value.
	Result int
	// end is where the frame's slots end in its context's arena, so where
	// the next frame's begin. A frame spilled to the heap ends where it
	// begins.
	end int
}

// Context is the execution state machine instance inserted into
// function-calling events (§2.5): the stack of suspended frames plus the
// root request identity. The execution graph's intermediate results are
// the frames' environments.
//
// A call chain's context is built in storage its caller gives StepIn, or
// allocated by Step, and the chain allocates nothing else while it fits: Stack
// starts in inline, the shipped programs' common depth (a transaction and
// one callee), and the frames' slots are consecutive regions of arena, each
// frame's just past the one below it. A call's arguments are evaluated
// where the callee's frame begins, and since a method's parameters are its
// leading slots, the callee takes them in place; popping a frame frees its
// region. A frame that does not fit in what is left of the arena spills to
// the heap. The arena holds three values, a transfer's two slots and the
// deposit's one, because that fills the context's size class (448 bytes): a
// fourth value would move it to the 512-byte class.
//
// A context is never copied, and its call chain has exactly one event in
// flight: an invocation's Args may be the callee's frame-to-be inside the
// arena, so an event is stepped once and not read after it is.
type Context struct {
	Req    string // root request id (assigned by the ingress router)
	Stack  []Frame
	inline [2]Frame
	arena  [3]interp.Value
}

// reset readies c for a new call chain of root request req: every frame and
// arena value of an earlier chain is dropped, finished or abandoned midway.
func (c *Context) reset(req string) {
	*c = Context{Req: req}
	c.Stack = c.inline[:0]
}

// Top returns the innermost frame.
func (c *Context) Top() *Frame {
	if len(c.Stack) == 0 {
		return nil
	}
	return &c.Stack[len(c.Stack)-1]
}

// free returns where the arena's unused part begins: past the top frame.
func (c *Context) free() int {
	if len(c.Stack) == 0 {
		return 0
	}
	return c.Stack[len(c.Stack)-1].end
}

// push binds a fresh activation of m on ref as the new top frame: its slots
// are the arena past the frame below it when they fit there (taking args in
// place when suspend evaluated them there), and a heap array when not.
func (c *Context) push(ref interp.EntityRef, m *ir.Method, args []interp.Value) error {
	base := c.free()
	c.Stack = append(c.Stack, Frame{Ref: ref, Method: m, end: base})
	fr := c.Top()
	n := m.Frame.NumSlots()
	if base+n > len(c.arena) {
		return fr.Env.Bind(m, args)
	}
	fr.end = base + n
	var err error
	fr.Env, err = interp.FrameIn(m, args, c.arena[base:fr.end])
	return err
}

// argsAt returns storage for a call's n arguments: the arena past the top
// frame, where the callee's frame will begin, or a heap array when they do
// not fit there.
func (c *Context) argsAt(n int) []interp.Value {
	if base := c.free(); base+n <= len(c.arena) {
		return c.arena[base : base+n : base+n]
	}
	return make([]interp.Value, n)
}

// EventKind discriminates dataflow events.
type EventKind int

// Event kinds.
const (
	// EvInvoke asks the target operator to run a method (or __init__).
	EvInvoke EventKind = iota
	// EvResume delivers the return value of a completed call back to the
	// suspended caller frame.
	EvResume
	// EvResponse carries the root method's return value (or error) to the
	// egress router and then to the client.
	EvResponse
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvInvoke:
		return "invoke"
	case EvResume:
		return "resume"
	case EvResponse:
		return "response"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is the payload message flowing through the dataflow graph
// (Figure 2). Runtimes wrap it in their own transport envelopes.
type Event struct {
	Kind   EventKind
	Req    string           // root request id
	Target interp.EntityRef // routing target (operator + key)
	Method string           // EvInvoke: method to run
	Args   []interp.Value   // EvInvoke: evaluated arguments
	Value  interp.Value     // EvResume/EvResponse: returned value
	Err    string           // EvResponse: execution error, if any
	Ctx    *Context         // suspended caller stack (nil for simple root calls)
	// Hops counts operator-to-operator transfers for this request; cost
	// models and tests use it to assert routing behaviour. A StateFree
	// continuation run where its call returned is not a transfer.
	Hops int
}

// Store gives the executor access to the entity states of the local
// partition. Implementations decide how state is kept (HashMap, snapshot-
// backed store, transactional workspace) and may track reads and writes.
type Store interface {
	// Lookup returns the state of an existing entity, or ok=false.
	Lookup(ref interp.EntityRef) (interp.State, bool)
	// Create makes a new entity: it fails if the entity already exists,
	// and otherwise runs ctor — the entity's __init__ — on the new
	// entity's empty state. The entity exists only if ctor returns nil.
	Create(ref interp.EntityRef, ctor func(interp.State) error) error
}

// Executor drives entity execution for one compiled program.
type Executor struct {
	prog *ir.Program
	in   *interp.Interp
}

// NewExecutor builds an executor over a program.
func NewExecutor(prog *ir.Program) *Executor {
	return &Executor{prog: prog, in: interp.New(prog)}
}

// KeyForCtor extracts the routing key for a constructor invocation from
// its argument list using the operator's key parameter (§2.2: the routing
// mechanism partitions by key before the entity exists).
func (ex *Executor) KeyForCtor(class string, args []interp.Value) (string, error) {
	op := ex.prog.Operator(class)
	if op == nil {
		return "", fmt.Errorf("core: unknown class %s", class)
	}
	init := op.Method("__init__")
	for i, p := range init.Params {
		if p.Name == op.KeyParam {
			if i >= len(args) {
				return "", fmt.Errorf("core: missing key argument for %s", class)
			}
			return keyString(args[i])
		}
	}
	return "", fmt.Errorf("core: class %s has no key parameter", class)
}

// InitRow runs the constructor of class with args on a detached row laid
// out for the class, and returns the entity it makes and that row: the
// state the entity has once Create installs it.
func (ex *Executor) InitRow(class string, args []interp.Value) (interp.EntityRef, *interp.Row, error) {
	key, err := ex.KeyForCtor(class, args)
	if err != nil {
		return interp.EntityRef{}, nil, err
	}
	row := interp.NewRow(ex.prog.Layouts().LayoutOf(class))
	if err := ex.in.ExecInit(class, args, row); err != nil {
		return interp.EntityRef{}, nil, err
	}
	return interp.EntityRef{Class: class, Key: key}, row, nil
}

func keyString(v interp.Value) (string, error) {
	switch v.Kind {
	case interp.KStr:
		return v.Str(), nil
	case interp.KInt:
		return strconv.FormatInt(v.I, 10), nil
	default:
		return "", fmt.Errorf("core: key must be str or int, got %s", v.Kind)
	}
}

// Step processes one event addressed to this operator partition and
// returns the one event it produces. The store must hold the state for
// ev.Target's partition. Step never blocks: a remote call suspends the
// context and emits an invocation event (§2.3: "a streaming dataflow
// should never stop and wait for a remote function").
func (ex *Executor) Step(ev *Event, store Store) (Event, error) {
	return ex.StepIn(ev, store, nil)
}

// StepIn is Step with storage for the context: a root invocation that needs
// one (ev.Ctx nil, a method that may suspend) resets spare and builds its
// context there, and a nil spare allocates one. Every later event of the
// chain carries spare as its Ctx, so spare must outlive the chain: its
// caller hands it to another chain only once this one answered or was
// abandoned.
func (ex *Executor) StepIn(ev *Event, store Store, spare *Context) (Event, error) {
	switch ev.Kind {
	case EvInvoke:
		return ex.stepInvoke(ev, store, spare)
	case EvResume:
		return ex.stepResume(ev, store)
	default:
		return Event{}, fmt.Errorf("core: operator received %s event", ev.Kind)
	}
}

// Drive steps ev and each event that follows on one store holding every
// entity the request reaches, and returns the response and the step count.
func (ex *Executor) Drive(ev Event, store Store) (resp Event, steps int, err error) {
	for ; ev.Kind != EvResponse; steps++ {
		if steps == 1_000_000 {
			return Event{}, steps, fmt.Errorf("core: event loop exceeded step bound")
		}
		if ev, err = ex.Step(&ev, store); err != nil {
			return Event{}, steps + 1, err
		}
	}
	return ev, steps, nil
}

func (ex *Executor) stepInvoke(ev *Event, store Store, spare *Context) (Event, error) {
	op := ex.prog.Operator(ev.Target.Class)
	if op == nil {
		return ex.fail(ev.Req, fmt.Sprintf("unknown operator %s", ev.Target.Class), ev.Hops)
	}
	if ev.Method == "__init__" {
		return ex.stepInit(ev, store)
	}
	m := op.Method(ev.Method)
	if m == nil {
		return ex.fail(ev.Req, fmt.Sprintf("unknown method %s.%s", ev.Target.Class, ev.Method), ev.Hops)
	}
	st, ok := store.Lookup(ev.Target)
	if !ok {
		return ex.fail(ev.Req, fmt.Sprintf("entity %s does not exist", ev.Target), ev.Hops)
	}
	// Fast path for root calls to simple methods: the single
	// return-terminated block cannot suspend, so no execution context
	// needs to be allocated, and the frame, which ends with the call, is
	// bound on the stack when it fits there (interp.SlotsIn).
	if m.Simple && ev.Ctx == nil && len(m.Blocks) == 1 {
		if t, ok := m.Blocks[0].Term.(ir.Return); ok {
			var buf [interp.StackSlots]interp.Value
			env, err := interp.FrameIn(m, ev.Args, interp.SlotsIn(buf[:], m))
			if err != nil {
				return ex.fail(ev.Req, err.Error(), ev.Hops)
			}
			res, err := ex.in.ExecBlock(ev.Target.Class, ev.Target.Key, m.Blocks[0], &env, st)
			if err != nil {
				return ex.fail(ev.Req, err.Error(), ev.Hops)
			}
			v := res.Value
			if !res.Returned {
				v, err = ex.in.Eval(ev.Target.Class, ev.Target.Key, t.Value, &env, st)
				if err != nil {
					return ex.fail(ev.Req, err.Error(), ev.Hops)
				}
			}
			return ex.complete(nil, ev.Req, v, ev.Hops)
		}
	}
	ctx := ev.Ctx
	if ctx == nil {
		if ctx = spare; ctx == nil {
			ctx = new(Context)
		}
		ctx.reset(ev.Req)
	}
	if err := ctx.push(ev.Target, m, ev.Args); err != nil {
		return ex.fail(ev.Req, err.Error(), ev.Hops)
	}
	return ex.run(ctx, st, ev.Hops)
}

func (ex *Executor) stepInit(ev *Event, store Store) (Event, error) {
	// ExecInit binds the parameters itself (including the arity check).
	// Capturing fields, not ev, lets a caller keep ev on its stack.
	class, args := ev.Target.Class, ev.Args
	err := store.Create(ev.Target, func(st interp.State) error {
		return ex.in.ExecInit(class, args, st)
	})
	if err != nil {
		return ex.fail(ev.Req, err.Error(), ev.Hops)
	}
	// The constructor's value is a reference to the new entity.
	return ex.complete(ev.Ctx, ev.Req, interp.RefV(ev.Target.Class, ev.Target.Key), ev.Hops)
}

func (ex *Executor) stepResume(ev *Event, store Store) (Event, error) {
	ctx := ev.Ctx
	fr := ctx.Top()
	if fr == nil {
		return Event{}, fmt.Errorf("core: resume with empty context (req %s)", ev.Req)
	}
	if fr.Ref != ev.Target {
		return Event{}, fmt.Errorf("core: resume routed to %s but frame belongs to %s", ev.Target, fr.Ref)
	}
	st, ok := store.Lookup(fr.Ref)
	if !ok {
		return ex.fail(ev.Req, fmt.Sprintf("entity %s vanished", fr.Ref), ev.Hops)
	}
	fr.resume(ev.Value)
	return ex.run(ctx, st, ev.Hops)
}

// run executes the top frame's state machine until it suspends or
// completes, staying inside this operator partition.
func (ex *Executor) run(ctx *Context, st interp.State, hops int) (Event, error) {
	fr := ctx.Top()
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			return Event{}, fmt.Errorf("core: state machine exceeded step bound in %s.%s", fr.Ref.Class, fr.Method.Name)
		}
		b := fr.Method.Block(fr.Block)
		if b == nil {
			return Event{}, fmt.Errorf("core: missing block %d in %s.%s", fr.Block, fr.Ref.Class, fr.Method.Name)
		}
		res, err := ex.in.ExecBlock(fr.Ref.Class, fr.Ref.Key, b, &fr.Env, st)
		if err != nil {
			return ex.fail(ctx.Req, err.Error(), hops)
		}
		if res.Returned {
			return ex.complete(popFrame(ctx), ctx.Req, res.Value, hops)
		}
		switch t := b.Term.(type) {
		case ir.Return:
			v, err := ex.in.Eval(fr.Ref.Class, fr.Ref.Key, t.Value, &fr.Env, st)
			if err != nil {
				return ex.fail(ctx.Req, err.Error(), hops)
			}
			return ex.complete(popFrame(ctx), ctx.Req, v, hops)
		case ir.Jump:
			fr.Block = t.To
		case ir.Branch:
			cond, err := ex.in.Eval(fr.Ref.Class, fr.Ref.Key, t.Cond, &fr.Env, st)
			if err != nil {
				return ex.fail(ctx.Req, err.Error(), hops)
			}
			if cond.IsTruthy() {
				fr.Block = t.True
			} else {
				fr.Block = t.False
			}
		case ir.Invoke:
			return ex.suspend(ctx, fr, b, t, st, hops)
		default:
			return Event{}, fmt.Errorf("core: unknown terminator %T", b.Term)
		}
	}
}

// suspend evaluates the invocation's receiver and arguments, records the
// continuation and its result slot in the frame, keeps only the block's
// live-out slots in the carried environment, and emits the invocation
// event.
func (ex *Executor) suspend(ctx *Context, fr *Frame, b *ir.Block, t ir.Invoke, st interp.State, hops int) (Event, error) {
	args := ctx.argsAt(len(t.Args))
	for i, a := range t.Args {
		v, err := ex.in.Eval(fr.Ref.Class, fr.Ref.Key, a, &fr.Env, st)
		if err != nil {
			return ex.fail(ctx.Req, err.Error(), hops)
		}
		args[i] = v
	}
	var target interp.EntityRef
	if t.Recv == nil {
		// Constructor: route by the key argument.
		key, err := ex.KeyForCtor(t.Class, args)
		if err != nil {
			return ex.fail(ctx.Req, err.Error(), hops)
		}
		target = interp.EntityRef{Class: t.Class, Key: key}
	} else {
		recv, err := ex.in.Eval(fr.Ref.Class, fr.Ref.Key, t.Recv, &fr.Env, st)
		if err != nil {
			return ex.fail(ctx.Req, err.Error(), hops)
		}
		if recv.Kind != interp.KRef {
			return ex.fail(ctx.Req,
				fmt.Sprintf("call receiver is %s, not an entity", recv.Kind), hops)
		}
		target = recv.R
	}
	fr.Block = t.To
	fr.Result = t.Result
	fr.Env.Keep(b.LiveOutSlots)
	return Event{
		Kind:   EvInvoke,
		Req:    ctx.Req,
		Target: target,
		Method: t.Method,
		Args:   args,
		Ctx:    ctx,
		Hops:   hops + 1,
	}, nil
}

// complete pops back to the caller. A parent frame whose resume block is
// StateFree runs here, on no state — it reads nothing its operator holds,
// so the value need not travel there — and its return value completes the
// frame below it in turn. The first parent that needs its entity is resumed
// by an EvResume (possibly on another operator); once the stack is empty,
// the root call is done and the value heads to the egress router.
func (ex *Executor) complete(ctx *Context, req string, v interp.Value, hops int) (Event, error) {
	for ctx != nil && len(ctx.Stack) > 0 {
		parent := ctx.Top()
		b := parent.Method.Block(parent.Block)
		if b == nil || !b.StateFree {
			return Event{
				Kind:   EvResume,
				Req:    req,
				Target: parent.Ref,
				Value:  v,
				Ctx:    ctx,
				Hops:   hops + 1,
			}, nil
		}
		parent.resume(v)
		res, err := ex.in.ExecBlock(parent.Ref.Class, parent.Ref.Key, b, &parent.Env, nil)
		if err != nil {
			return ex.fail(req, err.Error(), hops)
		}
		v = res.Value
		if !res.Returned {
			if v, err = ex.in.Eval(parent.Ref.Class, parent.Ref.Key, b.Term.(ir.Return).Value, &parent.Env, nil); err != nil {
				return ex.fail(req, err.Error(), hops)
			}
		}
		popFrame(ctx)
	}
	return Event{Kind: EvResponse, Req: req, Value: v, Hops: hops}, nil
}

// fail abandons the whole context and reports the error to the client. The
// transactional runtime additionally aborts the surrounding transaction so
// partial effects never commit.
func (ex *Executor) fail(req string, msg string, hops int) (Event, error) {
	return Event{Kind: EvResponse, Req: req, Err: msg, Hops: hops}, nil
}

// resume writes a returned value into the frame's pending result slot.
func (fr *Frame) resume(v interp.Value) {
	if fr.Result > 0 {
		fr.Env.SetSlot(fr.Result-1, v)
	}
	fr.Result = 0
}

// popFrame removes the top frame and returns the context (nil-safe).
func popFrame(ctx *Context) *Context {
	if ctx == nil || len(ctx.Stack) == 0 {
		return ctx
	}
	ctx.Stack = ctx.Stack[:len(ctx.Stack)-1]
	return ctx
}

// Package sim is a deterministic discrete-event cluster simulator: the
// execution substrate that stands in for the paper's 14-CPU testbed (§4).
// Components (routers, workers, brokers, coordinators, clients) exchange
// messages with configurable link latencies, and every component is a
// serial processor: message handling consumes simulated CPU time, so
// overload produces queueing delay exactly like a real node (this is what
// makes the Figure-4 latency/throughput knee emerge rather than being
// hard-coded).
//
// Determinism: events are ordered by (time, sequence number) and all
// randomness flows from one seeded source, so every simulation run is
// exactly reproducible.
//
// Addressing: names exist only where a string enters or leaves the API.
// Inside, a component is its address, an index into the cluster's slice
// of components that a name gets the first time the kernel sees it, so
// an event carries two addresses and delivering it hashes no string.
//
// Context lifetime: the cluster owns one Context and lends it to a
// handler (OnMessage, OnStart, OnRestart) for the duration of that one
// call. It is valid only until the handler returns — a handler must not
// store it, capture it in a closure that outlives the call, or hand it to
// anything that runs later; the next delivery reuses the same value.
// Handlers never nest (a handler cannot run the cluster), and lending the
// Context while it is out panics.
//
// Sends are buffered values: Send appends an event to the Context's
// outbox instead of pushing onto the queue, and the outbox is flushed —
// sequence numbers assigned, perturbation consulted — when the handler
// returns. That keeps a handler's sends ordered by its final effective
// time, lets a crash planned inside the handler's CPU span void the sends
// stamped past it, and costs no allocation: the queue and the outbox hold
// events by value in slices reused across deliveries, so the only
// per-event heap object is the message the sender boxed.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"statefulentities.dev/stateflow/internal/obs"
)

// Message is an opaque payload delivered to a component.
type Message any

// Handler reacts to messages. Implementations must only interact with the
// cluster through the Context passed in.
type Handler interface {
	// OnMessage handles one message. CPU cost is charged via ctx.Work.
	OnMessage(ctx *Context, from string, msg Message)
}

// StartHandler is implemented by components that act when the simulation
// starts (e.g. sources that schedule their first arrival).
type StartHandler interface {
	OnStart(ctx *Context)
}

// RestartHandler is implemented by components that must rebuild volatile
// state when they come back from a crash (e.g. a coordinator reloading
// its durable log). OnRestart runs as a scheduled event immediately after
// the Restart that revived the component — a reboot, not a message — and
// is skipped if the component is crashed again before the event fires.
type RestartHandler interface {
	OnRestart(ctx *Context)
}

type addr int32 // a component's index in Cluster.comps

type component struct {
	id        string
	self      addr
	h         Handler // nil for a name never registered with Add
	busyUntil time.Duration
	crashed   bool
	// booting marks a RestartHandler component whose reboot event is
	// scheduled but has not run: the machine is still down, and any crash
	// arriving meanwhile cancels the boot (the kill wins).
	booting bool
	// holdUntil pins the crashed flag until the given virtual time:
	// Restart calls before it are ignored (a dead machine cannot be
	// willed back by its peers; see CrashUntil).
	holdUntil time.Duration
	// plannedCrashes holds crash instants registered through
	// ScheduleCrash. A send this component stamps past one of them is
	// voided before the wire sees it: the CPU span that issued it was
	// preempted at the instant, so the send never left the node.
	plannedCrashes []time.Duration
	watch          []func(at time.Duration) // crash observers (see WatchCrash)
}

// preemptedBefore reports whether a planned crash instant lies in
// [now, sentAt): the machine dies before its local clock reaches sentAt,
// so an effect stamped there never happened. Instants before now have
// already fired and are covered by the crashed flag.
func (comp *component) preemptedBefore(now, sentAt time.Duration) bool {
	for _, x := range comp.plannedCrashes {
		if x >= now && x < sentAt {
			return true
		}
	}
	return false
}

type event struct {
	at  time.Duration
	seq uint64
	msg Message
	// sentAt is the sender's local (effective) time at the Send call. A
	// crash voids every queued send the component issued after the crash
	// instant: a handler whose CPU span straddles the instant was
	// preempted there, and nothing it "did" past that point — a send any
	// more than an fsync — ever happened.
	sentAt time.Duration
	// fn, when non-nil, is a scheduled virtual-time action (ScheduleAt)
	// instead of a message delivery.
	fn       func(*Cluster)
	to, from addr
	// dropped marks an event voided by the sender's crash; it is consumed
	// from the queue without being delivered.
	dropped bool
}

// eventHeap is a binary min-heap of events by (at, seq), held by value:
// container/heap would box every event through Push(x any).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the backing array does not pin the delivered message.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && q.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// Perturb is a per-delivery fault verdict returned by a PerturbFunc:
// the zero value delivers the message untouched.
type Perturb struct {
	// Drop loses the message (it is never enqueued; Delivered never sees
	// it). Drop wins over the other fields: a verdict with both Drop and
	// Duplicate set loses every copy — model "original lost, late copy
	// survives" as a plain Delay instead.
	Drop bool
	// Delay adds extra delivery latency on top of the link latency.
	Delay time.Duration
	// Duplicate enqueues a second copy of the message, DupDelay after the
	// original delivery time.
	Duplicate bool
	DupDelay  time.Duration
}

// PerturbFunc inspects one message send and decides its fault verdict.
// It runs at send time (deterministic order) and may draw randomness from
// the cluster's single RNG so runs stay exactly reproducible. Self-sends
// (from == to, i.e. timers) and scheduled actions are never perturbed.
type PerturbFunc func(from, to string, at time.Duration, msg Message) Perturb

// Cluster is a simulated deployment.
type Cluster struct {
	comps   []*component // by address; pointers, since Send can add a slot mid-delivery
	names   map[string]addr
	order   []addr // registered components, in registration order
	queue   eventHeap
	seq     uint64
	now     time.Duration
	rng     *rand.Rand
	perturb PerturbFunc
	tap     TapFunc
	// flight, when set, records cluster-level lifecycle events (crashes,
	// reboots) for post-mortem timelines. Purely observational: recording
	// never touches the RNG, the event queue, or virtual time.
	flight *obs.FlightRecorder
	// ctx is the one Context the cluster lends to handlers (see the
	// package doc); lent guards against a nested lend.
	ctx  Context
	lent bool
	// Delivered counts total messages delivered, as a sanity metric.
	Delivered uint64
}

// New builds an empty cluster with a deterministic seed.
func New(seed int64) *Cluster {
	c := &Cluster{
		names: map[string]addr{},
		rng:   rand.New(rand.NewSource(seed)),
	}
	c.ctx.cluster = c
	return c
}

// Add registers a component under an id. Adding a duplicate id panics: the
// topology is static and built by trusted code.
func (c *Cluster) Add(id string, h Handler) {
	a := c.addrOf(id)
	if c.comps[a].h != nil {
		panic(fmt.Sprintf("sim: duplicate component %s", id))
	}
	c.comps[a].h = h
	c.order = append(c.order, a)
}

// addrOf returns id's address, giving a name seen for the first time the
// next free slot.
func (c *Cluster) addrOf(id string) addr {
	a, ok := c.names[id]
	if !ok {
		a = addr(len(c.comps))
		c.names[id] = a
		c.comps = append(c.comps, &component{id: id, self: a})
	}
	return a
}

// lookup returns the component registered under id, or nil.
func (c *Cluster) lookup(id string) *component {
	if a, ok := c.names[id]; ok && c.comps[a].h != nil {
		return c.comps[a]
	}
	return nil
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// SetFlightRecorder attaches a flight recorder that receives component
// crash/reboot events. Pass nil to detach.
func (c *Cluster) SetFlightRecorder(f *obs.FlightRecorder) { c.flight = f }

// Rand exposes the cluster's deterministic randomness source.
func (c *Cluster) Rand() *rand.Rand { return c.rng }

// Crash marks a component crashed: it silently drops every message until
// Restart. Used for failure-injection experiments.
func (c *Cluster) Crash(id string) { c.CrashUntil(id, 0) }

// CrashUntil crashes a component and holds it down until the given
// virtual time: Restart calls before then are ignored, so a recovery
// protocol cannot resurrect a machine the fault schedule still holds
// dead. The hold releases at `until`; the component stays crashed until
// someone actually calls Restart at or after that time.
func (c *Cluster) CrashUntil(id string, until time.Duration) {
	if comp := c.lookup(id); comp != nil {
		c.markCrashed(comp)
		if until > comp.holdUntil {
			comp.holdUntil = until
		}
	}
}

// ScheduleCrash plans a crash window: the component crashes at `at`
// (held down, see CrashUntil) and is restarted at `until`. Planning
// through this API — rather than raw ScheduleAt actions — registers the
// crash instant with the component up front, so a send a handler stamps
// past it is voided before the wire (and the perturb interceptor) ever
// sees it. A handler whose CPU span straddles the instant was preempted
// there; without the registry, its sends would reach the perturbation
// layer at flush time, before the crash event pops from the queue.
func (c *Cluster) ScheduleCrash(id string, at, until time.Duration) {
	if comp := c.lookup(id); comp != nil {
		comp.plannedCrashes = append(comp.plannedCrashes, at)
	}
	c.ScheduleAt(at, func(c *Cluster) { c.CrashUntil(id, until) })
	c.ScheduleAt(until, func(c *Cluster) { c.Restart(id) })
}

// markCrashed flips a component to crashed, notifying crash watchers on
// the alive→dead transition only (a machine already dead cannot crash
// harder; its attached storage already applied the contract). A crash —
// even a redundant one — cancels any pending reboot: the machine never
// came up, so a kill issued after the restart wins.
func (c *Cluster) markCrashed(comp *component) {
	comp.booting = false
	if comp.crashed {
		return
	}
	comp.crashed = true
	// Void every queued send this component issued after the crash
	// instant. A handler whose CPU span straddles the instant ran to
	// completion in engine order, but the machine was preempted at the
	// instant itself: sends stamped past it never left the node — exactly
	// as the storage crash contract already voids syncs stamped past it.
	// Without this, an fsync could be torn while a send issued *after* it
	// survives, an ordering no real machine can produce.
	for i := range c.queue {
		if ev := &c.queue[i]; ev.fn == nil && ev.from == comp.self && ev.sentAt > c.now {
			ev.dropped = true
		}
	}
	for _, fn := range comp.watch {
		fn(c.now)
	}
	c.flight.Record(c.now, comp.id, "crash", "")
}

// WatchCrash registers fn to run at the virtual instant id crashes (on
// each alive→dead transition). Durable-storage models use it to apply
// their crash contract — e.g. a dlog.SimLog losing its unsynced tail —
// at the exact crash time rather than at the later restart.
func (c *Cluster) WatchCrash(id string, fn func(at time.Duration)) {
	comp := c.comps[c.addrOf(id)]
	comp.watch = append(comp.watch, fn)
}

// Restart clears the crashed flag; the component's handler decides how to
// recover (e.g. reload a snapshot) when the next message arrives. A
// restart also resets busyUntil: pre-crash CPU backlog does not survive
// the reboot. Restarting a component still held down by CrashUntil is a
// no-op.
//
// If the component implements RestartHandler and was actually crashed,
// the restart is a *reboot*: the component stays dead until a scheduled
// boot event at the restart instant clears the crash flag and invokes
// OnRestart — so no message queued for that same instant can slip into
// the component ahead of its recovery, and a hold-down window re-imposed
// before the boot suppresses it.
func (c *Cluster) Restart(id string) {
	comp := c.lookup(id)
	if comp == nil {
		return
	}
	if c.now < comp.holdUntil {
		return
	}
	rh, hasHook := comp.h.(RestartHandler)
	if !comp.crashed || !hasHook {
		if comp.crashed {
			c.flight.Record(c.now, comp.id, "reboot", "")
		}
		comp.crashed = false
		comp.busyUntil = c.now
		return
	}
	comp.booting = true
	c.ScheduleAt(c.now, func(cl *Cluster) {
		if !comp.booting {
			return // re-killed before the boot completed, or already booted
		}
		if cl.now < comp.holdUntil {
			return // crashed again (with a hold) before the boot completed
		}
		comp.booting = false
		comp.crashed = false
		comp.busyUntil = cl.now
		cl.flight.Record(cl.now, comp.id, "reboot", "recovering")
		ctx := cl.lend(comp.self, cl.now)
		rh.OnRestart(ctx)
		comp.busyUntil = ctx.effective
		cl.settle()
	})
}

// IsCrashed reports crash status.
func (c *Cluster) IsCrashed(id string) bool {
	comp := c.lookup(id)
	return comp != nil && comp.crashed
}

// SetPerturb installs a delivery interceptor consulted for every
// cross-component message send (self-sends and scheduled actions are
// exempt: timers are a component's own clockwork, not network traffic).
// Pass nil to remove it.
func (c *Cluster) SetPerturb(f PerturbFunc) { c.perturb = f }

// TapFunc observes one enqueued send: sentAt is the sender's clock at the
// send, at the delivery time before any perturbation.
type TapFunc func(from, to string, sentAt, at time.Duration, msg Message)

// SetTap installs an observer of every send, timers included — the traffic
// a PerturbFunc never sees. It can change nothing and must not draw from
// the cluster's randomness, so a tapped run is the untapped one. Pass nil to
// remove it.
func (c *Cluster) SetTap(f TapFunc) { c.tap = f }

// push enqueues one message send, applying the perturb interceptor.
func (c *Cluster) push(at, sentAt time.Duration, from, to addr, msg Message) {
	if c.comps[from].preemptedBefore(c.now, sentAt) {
		return // sender dies before stamping this send; it never leaves the node
	}
	if c.tap != nil {
		c.tap(c.comps[from].id, c.comps[to].id, sentAt, at, msg)
	}
	if c.perturb != nil && from != to {
		p := c.perturb(c.comps[from].id, c.comps[to].id, at, msg)
		if p.Drop {
			return
		}
		if p.Duplicate {
			c.pushRaw(at+p.Delay+p.DupDelay, sentAt, from, to, msg)
		}
		at += p.Delay
	}
	c.pushRaw(at, sentAt, from, to, msg)
}

// pushRaw enqueues an event without perturbation.
func (c *Cluster) pushRaw(at, sentAt time.Duration, from, to addr, msg Message) {
	c.seq++
	c.queue.push(event{at: at, seq: c.seq, msg: msg, sentAt: sentAt, to: to, from: from})
}

// Inject schedules a message delivery from outside the simulation (e.g. a
// test or an interactive driver acting as an external client).
func (c *Cluster) Inject(at time.Duration, from, to string, msg Message) {
	if at < c.now {
		at = c.now
	}
	c.push(at, at, c.addrOf(from), c.addrOf(to), msg)
}

// ScheduleAt registers a virtual-time action: fn runs against the cluster
// when the clock reaches at (clamped to now), ordered with message
// deliveries by (time, sequence). Fault schedules use it to crash and
// restart components at planned instants; fn must not block.
func (c *Cluster) ScheduleAt(at time.Duration, fn func(*Cluster)) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	c.queue.push(event{at: at, seq: c.seq, fn: fn})
}

// Start invokes OnStart on every component (in registration order) at the
// current virtual time.
func (c *Cluster) Start() {
	for _, a := range c.order {
		if sh, ok := c.comps[a].h.(StartHandler); ok {
			sh.OnStart(c.lend(a, c.now))
			c.settle()
		}
	}
}

// RunUntil processes events in time order until the queue drains or the
// horizon passes. It returns the number of events processed.
func (c *Cluster) RunUntil(horizon time.Duration) int {
	n := 0
	for len(c.queue) > 0 {
		if c.queue[0].at > horizon {
			break
		}
		ev := c.queue.pop()
		c.now = ev.at
		n++
		if ev.fn != nil {
			ev.fn(c) // scheduled virtual-time action
			continue
		}
		// Consumed, never delivered: addressed to a name never registered,
		// voided by the sender's crash, or lost at a crashed target.
		comp := c.comps[ev.to]
		if comp.h == nil || ev.dropped || comp.crashed {
			continue
		}
		// Serial processor: handling begins when the component is free.
		start := ev.at
		if comp.busyUntil > start {
			start = comp.busyUntil
		}
		ctx := c.lend(ev.to, start)
		comp.h.OnMessage(ctx, c.comps[ev.from].id, ev.msg)
		comp.busyUntil = ctx.effective
		c.settle()
		c.Delivered++
	}
	// Advance the clock to the horizon even when the next event lies
	// beyond it, so callers stepping in fixed increments make progress.
	if c.now < horizon {
		c.now = horizon
	}
	return n
}

// Context is the capability handed to a component while it processes one
// message. It belongs to the cluster and is valid only for the duration
// of the handler call it was passed to (see the package doc).
type Context struct {
	cluster   *Cluster
	self      addr
	effective time.Duration // current time including consumed CPU
	outbox    []event       // sends buffered until the handler returns
}

// lend points the cluster's Context at one handler call.
func (c *Cluster) lend(self addr, effective time.Duration) *Context {
	if c.lent {
		panic(fmt.Sprintf("sim: handler of %s entered while %s still holds the Context", c.comps[self].id, c.comps[c.ctx.self].id))
	}
	c.lent = true
	c.ctx.self, c.ctx.effective = self, effective
	return &c.ctx
}

// maxIdleOutbox bounds the outbox capacity kept between deliveries, so
// one burst (a recovery re-sending a backlog) does not pin its peak.
const maxIdleOutbox = 1024

// settle takes the Context back after the handler returned: buffered
// sends move into the cluster queue (through the perturb interceptor),
// deferred so a handler's sends all reflect its final effective time
// ordering. Flushed slots are zeroed so the reused outbox does not pin
// delivered messages.
func (c *Cluster) settle() {
	ctx := &c.ctx
	for i := range ctx.outbox {
		e := &ctx.outbox[i]
		c.push(e.at, e.sentAt, e.from, e.to, e.msg)
	}
	if cap(ctx.outbox) > maxIdleOutbox {
		ctx.outbox = nil
	} else {
		clear(ctx.outbox)
		ctx.outbox = ctx.outbox[:0]
	}
	c.lent = false
}

// Now returns the component-local current time: the message arrival time
// plus any CPU already consumed while handling it.
func (ctx *Context) Now() time.Duration { return ctx.effective }

// Rand returns the cluster's deterministic randomness source.
func (ctx *Context) Rand() *rand.Rand { return ctx.cluster.rng }

// Work charges d of CPU time to this component: subsequent sends happen
// later, and the component stays busy (queueing later messages) until all
// charged work completes.
func (ctx *Context) Work(d time.Duration) {
	if d > 0 {
		ctx.effective += d
	}
}

// Send delivers msg to another component after the given link latency,
// measured from the current effective time.
func (ctx *Context) Send(to string, msg Message, latency time.Duration) {
	ctx.send(ctx.cluster.addrOf(to), msg, latency)
}

// After schedules a message to self (a timer).
func (ctx *Context) After(d time.Duration, msg Message) {
	ctx.send(ctx.self, msg, d)
}

func (ctx *Context) send(to addr, msg Message, latency time.Duration) {
	ctx.outbox = append(ctx.outbox, event{
		at: ctx.effective + latency, sentAt: ctx.effective, msg: msg, to: to, from: ctx.self,
	})
}

// Latency is a randomized link-latency model: base plus uniform jitter.
type Latency struct {
	Base   time.Duration
	Jitter time.Duration // uniform in [0, Jitter)
}

// Sample draws one latency value.
func (l Latency) Sample(rng *rand.Rand) time.Duration {
	if l.Jitter <= 0 {
		return l.Base
	}
	return l.Base + time.Duration(rng.Int63n(int64(l.Jitter)))
}

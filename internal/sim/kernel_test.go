package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// Tests of the value-typed kernel: event order against a naive reference,
// crash voiding by index, the Context lending contract, and the
// allocation ceiling per delivered event.

// scripted is one pre-generated event of the order test: delivered to a
// component (or run as a ScheduleAt action when fn is set), it spawns its
// children in order.
type scripted struct {
	id       int
	to       string
	fn       bool // a ScheduleAt action, not a message
	children []scriptedChild
}

type scriptedChild struct {
	ev      *scripted
	latency time.Duration
	kind    int // 0: Send, 1: After (to self), 2: ScheduleAt
}

// scriptNode delivers scripted events: it logs the id and issues the
// event's children through the Context (or, for actions, the cluster).
type scriptNode struct {
	cluster *Cluster
	log     *[]int
}

func (n *scriptNode) OnMessage(ctx *Context, _ string, msg Message) {
	ev := msg.(*scripted)
	*n.log = append(*n.log, ev.id)
	for _, ch := range ev.children {
		switch ch.kind {
		case 0:
			ctx.Send(ch.ev.to, ch.ev, ch.latency)
		case 1:
			ctx.After(ch.latency, ch.ev)
		case 2:
			n.cluster.ScheduleAt(ctx.Now()+ch.latency, n.action(ch.ev))
		}
	}
}

// action wraps a scripted ScheduleAt event: it can only inject and
// schedule (there is no Context outside a handler).
func (n *scriptNode) action(ev *scripted) func(*Cluster) {
	return func(c *Cluster) {
		*n.log = append(*n.log, ev.id)
		for _, ch := range ev.children {
			if ch.kind == 2 {
				c.ScheduleAt(c.Now()+ch.latency, n.action(ch.ev))
			} else {
				c.Inject(c.Now()+ch.latency, "outside", ch.ev.to, ch.ev)
			}
		}
	}
}

// duplicated decides, from the event id alone, whether the perturb
// interceptor duplicates a cross-component send (and how late the copy
// lands), so the kernel and the reference agree without sharing state.
func duplicated(id int) (bool, time.Duration) {
	return id%7 == 3, time.Duration(id%4) * time.Microsecond
}

// refPending is one queued event of the reference kernel.
type refPending struct {
	at time.Duration
	ev *scripted
}

// referenceOrder replays a script on the naive kernel: a list of pending
// events in enqueue order, stably re-sorted by time before every pop. It
// mirrors the kernel's enqueue rules — ScheduleAt and an action's Inject
// enqueue at the call, a handler's sends enqueue when it returns, a
// duplicate enqueues ahead of its original, and only sends between
// different components reach the interceptor.
func referenceOrder(roots []refPending) []int {
	pending := append([]refPending(nil), roots...)
	enqueue := func(at time.Duration, ev *scripted, from string) {
		if dup, late := duplicated(ev.id); dup && from != ev.to {
			pending = append(pending, refPending{at + late, ev})
		}
		pending = append(pending, refPending{at, ev})
	}
	var log []int
	for len(pending) > 0 {
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
		cur := pending[0]
		pending = pending[1:]
		log = append(log, cur.ev.id)
		var outbox []scriptedChild
		for _, ch := range cur.ev.children {
			switch {
			case ch.kind == 2:
				pending = append(pending, refPending{cur.at + ch.latency, ch.ev})
			case cur.ev.fn:
				enqueue(cur.at+ch.latency, ch.ev, "outside")
			default:
				outbox = append(outbox, ch)
			}
		}
		for _, ch := range outbox {
			enqueue(cur.at+ch.latency, ch.ev, cur.ev.to)
		}
	}
	return log
}

// TestEventOrderMatchesStableSortReference runs random scripts of
// Send/After/Inject/ScheduleAt with perturb duplicates and many equal
// timestamps, and requires the kernel to deliver in exactly (at, seq)
// order: the order a stable sort by time of the enqueue sequence gives.
func TestEventOrderMatchesStableSortReference(t *testing.T) {
	names := []string{"a", "b", "c"}
	delivered := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nextID := 0
		// build generates one event and its descendants; to pins the
		// target (a timer comes back to its sender), "" draws one.
		var build func(depth int, fn bool, to string) *scripted
		build = func(depth int, fn bool, to string) *scripted {
			nextID++
			if to == "" {
				to = names[rng.Intn(len(names))]
			}
			ev := &scripted{id: nextID, to: to, fn: fn}
			if depth == 0 {
				return ev
			}
			for i := rng.Intn(4); i > 0; i-- {
				kind := rng.Intn(3)
				// Few distinct latencies, zero included: ties are the point.
				lat := time.Duration(rng.Intn(3)) * time.Microsecond
				childTo := ""
				if kind == 1 && !fn {
					childTo = ev.to
				}
				child := build(depth-1, kind == 2, childTo)
				ev.children = append(ev.children, scriptedChild{ev: child, latency: lat, kind: kind})
			}
			return ev
		}

		c := New(seed)
		var got []int
		node := &scriptNode{cluster: c, log: &got}
		for _, name := range names {
			c.Add(name, node)
		}
		c.SetPerturb(func(_, _ string, _ time.Duration, msg Message) Perturb {
			dup, late := duplicated(msg.(*scripted).id)
			return Perturb{Duplicate: dup, DupDelay: late}
		})
		var roots []refPending
		for i := 0; i < 6; i++ {
			at := time.Duration(rng.Intn(3)) * time.Microsecond
			root := build(4, rng.Intn(3) == 0, "")
			if root.fn {
				c.ScheduleAt(at, node.action(root))
				roots = append(roots, refPending{at, root})
				continue
			}
			c.Inject(at, "outside", root.to, root)
			if dup, late := duplicated(root.id); dup {
				roots = append(roots, refPending{at + late, root})
			}
			roots = append(roots, refPending{at, root})
		}
		c.RunUntil(time.Hour)
		if len(c.queue) != 0 {
			t.Fatalf("seed %d: %d events left past the scripts' hour", seed, len(c.queue))
		}
		want := referenceOrder(roots)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: delivery order diverges from the stable-sort reference\n got %v\nwant %v", seed, got, want)
		}
		delivered += len(got)
	}
	if delivered < 1000 {
		t.Fatalf("scripts too small to mean anything (%d events over all seeds)", delivered)
	}
}

// straddler sends once immediately and once after 10 ms of CPU work.
type straddler struct{}

func (straddler) OnMessage(ctx *Context, _ string, _ Message) {
	ctx.Send("sink", ping{n: 1}, time.Millisecond)
	ctx.Work(10 * time.Millisecond)
	ctx.Send("sink", ping{n: 2}, time.Millisecond)
}

// TestCrashVoidsQueuedSendsStampedPastIt: the heap holds events by value,
// so the crash must mark the queued send dropped in place. A crash that
// lands inside the handler's CPU span voids the send stamped after it and
// keeps the one stamped before, and the voided send is still consumed.
// A crash planned through ScheduleCrash is known before the handler
// returns, so its voided send never reaches the perturb layer at all.
func TestCrashVoidsQueuedSendsStampedPastIt(t *testing.T) {
	c := New(1)
	sink := &recorder{}
	c.Add("busy", straddler{})
	c.Add("sink", sink)
	// Pad the queue so the voided event is not at a heap position a copy
	// of the slice header would happen to share.
	for i := 0; i < 16; i++ {
		c.Inject(time.Second, "outside", "sink", pong{})
	}
	c.Inject(time.Millisecond, "outside", "busy", ping{})
	c.ScheduleAt(5*time.Millisecond, func(c *Cluster) { c.Crash("busy") })
	c.RunUntil(100 * time.Millisecond)
	if !reflect.DeepEqual(sink.order, []int{1}) {
		t.Fatalf("sink received %v, want only the send stamped before the crash", sink.order)
	}
	c.RunUntil(2 * time.Second)
	if len(c.queue) != 0 {
		t.Fatalf("%d events pending after drain", len(c.queue))
	}

	c = New(1)
	c.Add("busy", straddler{})
	c.Add("sink", &recorder{})
	var wire []int
	c.SetPerturb(func(from, _ string, _ time.Duration, msg Message) Perturb {
		if from == "busy" {
			wire = append(wire, msg.(ping).n)
		}
		return Perturb{}
	})
	c.Inject(time.Millisecond, "outside", "busy", ping{})
	c.ScheduleCrash("busy", 5*time.Millisecond, time.Second)
	c.RunUntil(100 * time.Millisecond)
	if !reflect.DeepEqual(wire, []int{1}) {
		t.Fatalf("perturb layer saw busy's sends %v, want only the one stamped before the planned crash", wire)
	}
}

// reentrant runs the cluster from inside its own handler.
type reentrant struct{ cluster *Cluster }

func (r reentrant) OnMessage(ctx *Context, _ string, _ Message) {
	ctx.After(0, ping{})
	r.cluster.Inject(ctx.Now(), "outside", "other", ping{})
	r.cluster.RunUntil(ctx.Now() + time.Second)
}

// TestContextReentrancyPanics: the cluster lends one Context, so a
// handler that makes the cluster deliver another message must panic
// instead of silently sharing (and clobbering) it.
func TestContextReentrancyPanics(t *testing.T) {
	c := New(1)
	c.Add("self", reentrant{cluster: c})
	c.Add("other", &recorder{})
	c.Inject(0, "outside", "self", ping{})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "still holds the Context") {
			t.Fatalf("nested delivery did not panic on the lent Context (recovered %q)", msg)
		}
	}()
	c.RunUntil(time.Second)
}

// forwarder passes every message on to its peer.
type forwarder struct{ peer string }

func (f forwarder) OnMessage(ctx *Context, _ string, msg Message) {
	ctx.Send(f.peer, msg, time.Microsecond)
}

// TestAllocsPerDeliveredEvent is the tier-1 gate on the kernel's own
// allocations: with the message already boxed, delivering an event —
// pop, lend the Context, buffer the send, flush, push — allocates
// nothing once the queue and the outbox have grown.
func TestAllocsPerDeliveredEvent(t *testing.T) {
	c := New(1)
	c.Add("a", forwarder{peer: "b"})
	c.Add("b", forwarder{peer: "a"})
	var msg Message = &ping{}
	for i := 0; i < 64; i++ {
		c.Inject(0, "a", "b", msg)
	}
	const perRun = 1000
	horizon := time.Duration(0)
	step := func() {
		for n := 0; n < perRun; horizon += time.Microsecond {
			n += c.RunUntil(horizon)
		}
	}
	step() // grow the queue and the outbox
	perEvent := testing.AllocsPerRun(20, step) / perRun
	t.Logf("%.3f allocations per delivered event", perEvent)
	if perEvent > 0.01 {
		t.Fatalf("%.3f allocations per delivered event, want 0 beyond the sender's boxed message", perEvent)
	}
}

// TestEventIsCompact pins the queued event's size: the heap copies whole
// events at every sift, and a component travels in it as an address, not
// a name.
func TestEventIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("event is %d bytes, want at most 64", n)
	}
}

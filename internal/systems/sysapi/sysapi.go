// Package sysapi defines the client-facing request/response contract
// shared by the simulated runtimes (StateFlow and the StateFun-model
// baseline), plus reusable client components: a scripted client for tests
// and an open-loop generator for benchmarks.
package sysapi

import (
	"strconv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
)

// Request is a root invocation submitted by a client ("caller outside the
// system, such as an HTTP endpoint", §2.3).
type Request struct {
	Req    string // unique request id
	Target interp.EntityRef
	Method string // "__init__" creates the entity
	Args   []interp.Value
	// Kind tags the request for per-operation metrics (e.g. "read",
	// "update", "transfer"); the runtimes ignore it.
	Kind string
	// Trace is the span context minted with the request id (see
	// Builder): protocol messages carry it end to end so every phase a
	// runtime closes out — ingress queueing, execution, validation,
	// fallback rounds, commit fsync waits, fence waits — tags its span
	// with the same trace id. Purely observational: no runtime branches
	// on it, and it is derived from the request id alone, so it is
	// identical whether or not a tracer is attached.
	Trace obs.SpanContext
}

// Response is the terminal outcome of a request.
type Response struct {
	Req     string
	Value   interp.Value
	Err     string
	Retries int // transactional runtimes: abort/retry count
}

// MsgRequest is the wire message a client sends to a system's ingress.
type MsgRequest struct {
	Request Request
	ReplyTo string // component to receive MsgResponse
}

// MsgResponse is the wire message the egress sends back.
type MsgResponse struct {
	Response Response
}

// System is the minimal facade a simulated runtime exposes to clients.
type System interface {
	// IngressID is the component that accepts MsgRequest.
	IngressID() string
	// ClientLink returns the client-edge latency model.
	ClientLink() sim.Latency
}

// Backend extends System with the out-of-band surface every simulated
// runtime provides: key derivation, dataset preloading and committed-state
// introspection. The root package and the benchmark harness drive both
// systems through this one interface instead of type-switching on the
// concrete runtime.
type Backend interface {
	System
	// KeyForCtor derives the routing key of a constructor call from its
	// argument list.
	KeyForCtor(class string, args []interp.Value) (string, error)
	// PreloadEntity installs the state an entity would have after __init__
	// with the given args, bypassing the dataflow. Call before the run.
	PreloadEntity(class string, args ...interp.Value) error
	// EntityState reads a copy of an entity's committed state.
	EntityState(class, key string) (interp.MapState, bool)
	// Keys lists the keys of every committed entity of a class, sorted.
	Keys(class string) []string
	// ChaosTopology declares the runtime's failure contract to the chaos
	// engine: component roles, crash-recoverable roles, and which
	// deliveries may safely be dropped or duplicated.
	ChaosTopology() chaos.Topology
}

// ---------------------------------------------------------------------------
// Request builder

// Builder mints uniquely-identified requests. The Simulation client, the
// scripted clients and the workload generators all build requests through
// it, so id formatting and request assembly live in one place.
//
// Ids have the form "<prefix><incarnation>.<seq>". The source — prefix
// plus incarnation — names one life of one client; the sequence grows
// monotonically within it. Runtimes exploit the structure for dedup
// beyond the retention window: once a source's answered entries are
// pruned, the highest pruned sequence becomes the source's floor, and
// any arrival at or below it is provably a very late duplicate (the
// client that minted it numbered every later request higher). A
// restarted client that lost its counter must take a fresh incarnation
// (NewIncarnation) so its new life is never mistaken for its old one.
type Builder struct {
	prefix string
	inc    int
	seq    int
}

// NewBuilder builds a request builder for incarnation 1 of the source;
// prefix keeps ids unique across request sources sharing a deployment.
func NewBuilder(prefix string) *Builder { return &Builder{prefix: prefix, inc: 1} }

// NewIncarnation builds a builder for a later life of the same source: a
// restarted client whose sequence counter is gone. Ids from different
// incarnations never collide, and dedup floors are tracked per
// incarnation, so the reborn client starts clean.
func NewIncarnation(prefix string, inc int) *Builder {
	return &Builder{prefix: prefix, inc: inc}
}

// Next assembles the next sequentially-numbered request.
func (b *Builder) Next(target interp.EntityRef, method string, args []interp.Value, kind string) Request {
	b.seq++
	return b.At(b.seq, target, method, args, kind)
}

// At assembles a request with an explicit sequence number; generators
// driven by an external index (the i-th workload operation) use this form.
func (b *Builder) At(i int, target interp.EntityRef, method string, args []interp.Value, kind string) Request {
	// "<prefix><inc>.<i>", appended by hand: this runs once per generated
	// request, and fmt.Sprintf's boxing would be billed to the runtime.
	var buf [48]byte
	raw := append(buf[:0], b.prefix...)
	raw = strconv.AppendInt(raw, int64(b.inc), 10)
	raw = append(raw, '.')
	raw = strconv.AppendInt(raw, int64(i), 10)
	id := string(raw)
	return Request{
		Req:    id,
		Target: target,
		Method: method,
		Args:   args,
		Kind:   kind,
		Trace:  obs.SpanContext{ID: id},
	}
}

// SplitID splits a Builder-minted request id into its source (prefix +
// incarnation) and sequence number. It reads only the sequences At writes:
// decimal digits, no sign, no leading zero but in "0". Other ids report
// ok = false — "cl.07" is not cl's sequence 7 but an id of its own, and no
// id minted elsewhere carries a sequence contract, so floor-based dedup must
// not apply to them.
func SplitID(id string) (source string, seq int64, ok bool) {
	dot := strings.LastIndexByte(id, '.')
	if dot <= 0 || dot == len(id)-1 {
		return "", 0, false
	}
	digits := id[dot+1:]
	if digits[0] < '0' || digits[0] > '9' || digits[0] == '0' && len(digits) > 1 {
		return "", 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id[:dot], n, true
}

// ---------------------------------------------------------------------------
// Client-edge retransmitter

// Retransmitter is the client-edge retry state machine shared by every
// simulated client (the Simulation's api client, ScriptClient and
// Generator): it transmits requests over the client link and re-sends
// any request with no response after Every — same request id, so the
// ingress dedupes in-flight copies and the StateFlow egress re-serves
// already-answered ones from its durable buffer. This is the client half
// of the contract that makes client-edge drops and ingress downtime
// survivable.
type Retransmitter struct {
	Sys     System
	ReplyTo string
	// Every is the retransmission interval; <= 0 disables retries.
	Every time.Duration
	// Retries, when the owner sets it, counts re-sends per request id; a
	// client that needs only the sum leaves it nil and reads Total.
	Retries  map[string]int
	total    int
	inflight map[string]Request
}

// maxRetransmits bounds retransmissions per request, so an unresolvable
// request cannot keep the event queue alive forever.
const maxRetransmits = 100

// msgRetry is the retransmitter's self-timer.
type msgRetry struct {
	id      string
	attempt int
}

func (r *Retransmitter) transmit(ctx *sim.Context, req Request) {
	ctx.Send(r.Sys.IngressID(), MsgRequest{Request: req, ReplyTo: r.ReplyTo},
		r.Sys.ClientLink().Sample(ctx.Rand()))
}

// Send transmits a fresh request and arms its retry timer.
func (r *Retransmitter) Send(ctx *sim.Context, req Request) {
	if r.inflight == nil {
		r.inflight = map[string]Request{}
	}
	r.transmit(ctx, req)
	if r.Every > 0 {
		r.inflight[req.Req] = req
		ctx.After(r.Every, msgRetry{id: req.Req, attempt: 1})
	}
}

// Handle processes retransmitter-owned messages, reporting whether it
// consumed the message. Responses are observed (the id resolves, retries
// stop) but NOT consumed — the owner still records them.
func (r *Retransmitter) Handle(ctx *sim.Context, msg sim.Message) bool {
	switch m := msg.(type) {
	case msgRetry:
		req, ok := r.inflight[m.id]
		if !ok {
			return true // resolved: stop retrying
		}
		if m.attempt > maxRetransmits {
			delete(r.inflight, m.id)
			return true
		}
		r.total++
		if r.Retries != nil {
			r.Retries[m.id]++
		}
		r.transmit(ctx, req)
		ctx.After(r.Every, msgRetry{id: m.id, attempt: m.attempt + 1})
		return true
	case MsgResponse:
		delete(r.inflight, m.Response.Req)
	}
	return false
}

// Total counts retransmissions across all request ids.
func (r *Retransmitter) Total() int { return r.total }

// ---------------------------------------------------------------------------
// Scripted client (tests, examples)

// Scheduled is one scripted submission.
type Scheduled struct {
	At  time.Duration
	Req Request
}

// ScriptClient submits a fixed schedule of requests and records responses
// and latencies. Register it with the cluster, then inspect it after the
// run. With RetryEvery set it retransmits unanswered requests (see
// Retransmitter).
type ScriptClient struct {
	ID        string
	Sys       System
	Script    []Scheduled
	Responses map[string]Response
	Latency   *obs.Histogram
	PerKind   map[string]*obs.Histogram
	// RetryEvery re-sends a request that has no response after this much
	// virtual time (0: no retries). Retries counts re-sends per id.
	RetryEvery time.Duration
	Retries    map[string]int
	rx         Retransmitter
	sent       map[string]sentRequest
	// Done counts received responses.
	Done int
}

// sentRequest is a simulated client's record of one request it waits on.
type sentRequest struct {
	at   time.Duration
	kind string
}

// observeLatency records one response's latency in a client's series: the
// total, and the request kind's (a request with no kind has none).
func observeLatency(total *obs.Histogram, perKind map[string]*obs.Histogram, s sentRequest, now time.Duration) {
	lat := now - s.at
	total.Observe(lat)
	if s.kind == "" {
		return
	}
	series, ok := perKind[s.kind]
	if !ok {
		series = newLatencySeries()
		perKind[s.kind] = series
	}
	series.Observe(lat)
}

// LatencyReservoir caps client-side latency series memory: beyond this
// many samples a series degrades to a deterministic reservoir estimate
// (count/mean/max stay exact). Every gated benchmark run stays far
// below the cap, so bounding is behavior-neutral there; long runs — the
// nightly 100-seed sweeps, open-loop soak benchmarks — get constant
// memory instead of retaining every sample forever.
const LatencyReservoir = 1 << 18

// newLatencySeries returns a histogram bounded at LatencyReservoir.
func newLatencySeries() *obs.Histogram {
	return obs.NewBoundedHistogram(LatencyReservoir)
}

// NewScriptClient builds a scripted client.
func NewScriptClient(id string, sys System, script []Scheduled) *ScriptClient {
	return &ScriptClient{
		ID: id, Sys: sys, Script: script,
		Responses: map[string]Response{},
		Latency:   newLatencySeries(),
		PerKind:   map[string]*obs.Histogram{},
		Retries:   map[string]int{},
		sent:      map[string]sentRequest{},
	}
}

// OnStart schedules every scripted submission (retry knobs are locked in
// here, after the caller had a chance to set them).
func (c *ScriptClient) OnStart(ctx *sim.Context) {
	c.rx = Retransmitter{
		Sys: c.Sys, ReplyTo: c.ID,
		Every: c.RetryEvery, Retries: c.Retries,
	}
	for _, s := range c.Script {
		ctx.After(s.At, msgSubmit{req: s.Req})
	}
}

type msgSubmit struct{ req Request }

// OnMessage implements sim.Handler.
func (c *ScriptClient) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if c.rx.Handle(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case msgSubmit:
		c.sent[m.req.Req] = sentRequest{at: ctx.Now(), kind: m.req.Kind}
		c.rx.Send(ctx, m.req)
	case MsgResponse:
		id := m.Response.Req
		if _, dup := c.Responses[id]; dup {
			return // duplicate delivery (a replay the retry solicited, or wire dup)
		}
		c.Responses[id] = m.Response
		c.Done++
		if s, ok := c.sent[id]; ok {
			delete(c.sent, id)
			observeLatency(c.Latency, c.PerKind, s, ctx.Now())
		}
	}
}

// ---------------------------------------------------------------------------
// Open-loop generator (benchmarks)

// Generator submits requests drawn from a workload function at a fixed
// arrival rate (open loop: arrivals do not wait for responses, so queueing
// delay shows up as latency exactly like in the paper's experiments).
// With RetryEvery set it retransmits unanswered requests, like a fleet of
// real clients with a request timeout — required when the fault plan may
// drop client-edge messages or crash the ingress (see Retransmitter).
type Generator struct {
	ID   string
	Sys  System
	Rate float64 // requests per second
	// Horizon stops arrivals after this virtual time.
	Horizon time.Duration
	// WarmUp discards latency samples before this time.
	WarmUp time.Duration
	// Next produces the i-th request.
	Next func(i int) Request
	// RetryEvery re-sends a request with no response after this much
	// virtual time (0: no retries).
	RetryEvery time.Duration

	Latency   *obs.Histogram
	PerKind   map[string]*obs.Histogram
	Errors    int
	Done      int
	Submitted int
	rx        Retransmitter
	sent      map[string]sentRequest
	seq       int
}

// NewGenerator builds an open-loop generator.
func NewGenerator(id string, sys System, rate float64, horizon, warmUp time.Duration, next func(i int) Request) *Generator {
	return &Generator{
		ID: id, Sys: sys, Rate: rate, Horizon: horizon, WarmUp: warmUp, Next: next,
		Latency: newLatencySeries(),
		PerKind: map[string]*obs.Histogram{},
		sent:    map[string]sentRequest{},
	}
}

// Retried reports total retransmissions across all requests.
func (g *Generator) Retried() int { return g.rx.Total() }

type msgArrival struct{}

// OnStart schedules the first arrival.
func (g *Generator) OnStart(ctx *sim.Context) {
	g.rx = Retransmitter{Sys: g.Sys, ReplyTo: g.ID, Every: g.RetryEvery}
	ctx.After(g.interArrival(ctx), msgArrival{})
}

// interArrival draws an exponential gap (Poisson arrivals).
func (g *Generator) interArrival(ctx *sim.Context) time.Duration {
	if g.Rate <= 0 {
		return time.Hour
	}
	mean := float64(time.Second) / g.Rate
	return time.Duration(ctx.Rand().ExpFloat64() * mean)
}

// OnMessage implements sim.Handler.
func (g *Generator) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if g.rx.Handle(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case msgArrival:
		if ctx.Now() > g.Horizon {
			return
		}
		req := g.Next(g.seq)
		g.seq++
		g.Submitted++
		g.sent[req.Req] = sentRequest{at: ctx.Now(), kind: req.Kind}
		g.rx.Send(ctx, req)
		ctx.After(g.interArrival(ctx), msgArrival{})
	case MsgResponse:
		id := m.Response.Req
		s, ok := g.sent[id]
		if !ok {
			return // duplicate (or unknown) response: already accounted
		}
		delete(g.sent, id)
		g.Done++
		if m.Response.Err != "" {
			g.Errors++
		}
		if s.at >= g.WarmUp {
			observeLatency(g.Latency, g.PerKind, s, ctx.Now())
		}
	}
}

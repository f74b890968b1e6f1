package sysapi

import (
	"fmt"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
)

// echoSystem is a trivial System whose ingress component answers every
// request after a fixed service delay.
type echoSystem struct {
	delay time.Duration
}

func (echoSystem) IngressID() string { return "echo" }

func (echoSystem) ClientLink() sim.Latency {
	return sim.Latency{Base: time.Millisecond}
}

type echoIngress struct{ delay time.Duration }

func (e echoIngress) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if m, ok := msg.(MsgRequest); ok {
		ctx.Send(m.ReplyTo, MsgResponse{Response: Response{
			Req: m.Request.Req, Value: interp.IntV(1),
		}}, e.delay)
	}
}

func TestScriptClientRecordsLatency(t *testing.T) {
	cluster := sim.New(1)
	sys := echoSystem{}
	cluster.Add("echo", echoIngress{delay: 4 * time.Millisecond})
	c := NewScriptClient("c", sys, []Scheduled{
		{At: 0, Req: Request{Req: "r1", Kind: "read"}},
		{At: 2 * time.Millisecond, Req: Request{Req: "r2", Kind: "update"}},
	})
	cluster.Add("c", c)
	cluster.Start()
	cluster.RunUntil(time.Second)
	if c.Done != 2 {
		t.Fatalf("done: %d", c.Done)
	}
	// Round trip: 1ms there + 4ms service.
	if got := c.Latency.Percentile(0); got != 5*time.Millisecond {
		t.Fatalf("latency: %s", got)
	}
	if c.PerKind["read"].Snapshot().Count != 1 || c.PerKind["update"].Snapshot().Count != 1 {
		t.Fatal("per-kind series")
	}
	if c.Responses["r1"].Value.I != 1 {
		t.Fatal("response payload")
	}
}

func TestScriptClientDedupes(t *testing.T) {
	cluster := sim.New(1)
	c := NewScriptClient("c", echoSystem{}, nil)
	cluster.Add("c", c)
	cluster.Add("echo", echoIngress{})
	cluster.Start()
	cluster.Inject(0, "echo", "c", MsgResponse{Response: Response{Req: "dup"}})
	cluster.Inject(0, "echo", "c", MsgResponse{Response: Response{Req: "dup"}})
	cluster.RunUntil(time.Second)
	if c.Done != 1 {
		t.Fatalf("duplicate responses counted: %d", c.Done)
	}
}

func TestGeneratorOpenLoopRate(t *testing.T) {
	cluster := sim.New(2)
	sys := echoSystem{}
	cluster.Add("echo", echoIngress{delay: time.Millisecond})
	gen := NewGenerator("g", sys, 1000, 2*time.Second, 0, func(i int) Request {
		return Request{Req: fmt.Sprintf("r%d", i), Kind: "read"}
	})
	cluster.Add("g", gen)
	cluster.Start()
	cluster.RunUntil(4 * time.Second)
	// Poisson arrivals at 1000/s over 2s: expect ~2000 +- 10%.
	if gen.Submitted < 1700 || gen.Submitted > 2300 {
		t.Fatalf("submitted: %d", gen.Submitted)
	}
	if gen.Done != gen.Submitted {
		t.Fatalf("done %d != submitted %d", gen.Done, gen.Submitted)
	}
	if gen.Errors != 0 {
		t.Fatalf("errors: %d", gen.Errors)
	}
}

func TestGeneratorWarmupDiscardsSamples(t *testing.T) {
	cluster := sim.New(3)
	sys := echoSystem{}
	cluster.Add("echo", echoIngress{delay: time.Millisecond})
	gen := NewGenerator("g", sys, 500, time.Second, 500*time.Millisecond, func(i int) Request {
		return Request{Req: fmt.Sprintf("r%d", i)}
	})
	cluster.Add("g", gen)
	cluster.Start()
	cluster.RunUntil(3 * time.Second)
	samples := gen.Latency.Snapshot().Count
	if int(samples) >= gen.Done {
		t.Fatalf("warm-up not discarded: %d samples of %d done", samples, gen.Done)
	}
	if samples == 0 {
		t.Fatal("no samples after warm-up")
	}
}

// A generator forgets a request once it is answered, warm-up requests
// included: their latency is discarded, their record must go too. A
// retried request leaves nothing behind either: the retransmitter keeps a
// count of re-sends, not one per id.
func TestGeneratorForgetsAnsweredRequests(t *testing.T) {
	for _, retry := range []bool{false, true} {
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			cluster := sim.New(3)
			var ingress sim.Handler = echoIngress{delay: time.Millisecond}
			if retry {
				ingress = &dropFirstIngress{echoIngress: echoIngress{delay: time.Millisecond}, seen: map[string]bool{}}
			}
			cluster.Add("echo", ingress)
			gen := NewGenerator("g", echoSystem{}, 500, time.Second, 500*time.Millisecond, func(i int) Request {
				return Request{Req: fmt.Sprintf("r%d", i), Kind: "read"}
			})
			if retry {
				gen.RetryEvery = 10 * time.Millisecond
			}
			cluster.Add("g", gen)
			cluster.Start()
			cluster.RunUntil(3 * time.Second)
			if gen.Done != gen.Submitted || gen.Done == 0 {
				t.Fatalf("%d of %d requests answered", gen.Done, gen.Submitted)
			}
			want := 0
			if retry {
				want = gen.Submitted // each request's first copy was lost
			}
			if gen.Retried() != want {
				t.Fatalf("%d retransmissions, want %d", gen.Retried(), want)
			}
			if n, m, r := len(gen.sent), len(gen.rx.inflight), len(gen.rx.Retries); n+m+r != 0 {
				t.Fatalf("%d sent, %d in-flight and %d retry records held after every request was answered", n, m, r)
			}
		})
	}
}

// dropFirstIngress loses the first copy of every request and answers the
// retransmission.
type dropFirstIngress struct {
	echoIngress
	seen map[string]bool
}

func (d *dropFirstIngress) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if m, ok := msg.(MsgRequest); ok && !d.seen[m.Request.Req] {
		d.seen[m.Request.Req] = true
		return
	}
	d.echoIngress.OnMessage(ctx, from, msg)
}

func TestGeneratorStopsAtHorizon(t *testing.T) {
	cluster := sim.New(4)
	sys := echoSystem{}
	cluster.Add("echo", echoIngress{})
	gen := NewGenerator("g", sys, 100, 100*time.Millisecond, 0, func(i int) Request {
		return Request{Req: fmt.Sprintf("r%d", i)}
	})
	cluster.Add("g", gen)
	cluster.Start()
	cluster.RunUntil(10 * time.Second)
	if gen.Submitted > 30 { // ~10 expected at 100/s over 100ms
		t.Fatalf("generator ran past horizon: %d", gen.Submitted)
	}
	if n := cluster.RunUntil(time.Hour); n != 0 {
		t.Fatalf("events still pending: %d", n)
	}
}

func TestGeneratorCountsErrors(t *testing.T) {
	cluster := sim.New(5)
	sys := echoSystem{}
	cluster.Add("echo", failingIngress{})
	gen := NewGenerator("g", sys, 200, 100*time.Millisecond, 0, func(i int) Request {
		return Request{Req: fmt.Sprintf("r%d", i)}
	})
	cluster.Add("g", gen)
	cluster.Start()
	cluster.RunUntil(2 * time.Second)
	if gen.Errors == 0 || gen.Errors != gen.Done {
		t.Fatalf("errors: %d done: %d", gen.Errors, gen.Done)
	}
}

type failingIngress struct{}

func (failingIngress) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if m, ok := msg.(MsgRequest); ok {
		ctx.Send(m.ReplyTo, MsgResponse{Response: Response{
			Req: m.Request.Req, Err: "boom",
		}}, time.Millisecond)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder("req-")
	target := interp.EntityRef{Class: "Account", Key: "alice"}
	r1 := b.Next(target, "read", nil, "read")
	r2 := b.Next(target, "update", []interp.Value{interp.IntV(5)}, "update")
	if r1.Req != "req-1.1" || r2.Req != "req-1.2" {
		t.Fatalf("sequential ids: %s %s", r1.Req, r2.Req)
	}
	if r2.Method != "update" || r2.Kind != "update" || len(r2.Args) != 1 {
		t.Fatalf("request fields: %+v", r2)
	}
	at := b.At(7, target, "read", nil, "")
	if at.Req != "req-1.7" || at.Target != target {
		t.Fatalf("At: %+v", at)
	}
	// At does not advance the sequence.
	if r3 := b.Next(target, "read", nil, ""); r3.Req != "req-1.3" {
		t.Fatalf("sequence after At: %s", r3.Req)
	}
}

func TestBuilderIncarnations(t *testing.T) {
	target := interp.EntityRef{Class: "Account", Key: "alice"}
	b2 := NewIncarnation("req-", 2)
	r := b2.Next(target, "read", nil, "")
	if r.Req != "req-2.1" {
		t.Fatalf("incarnation id: %s", r.Req)
	}
	if r1 := NewBuilder("req-").Next(target, "read", nil, ""); r1.Req == r.Req {
		t.Fatalf("incarnations collide: %s", r.Req)
	}
}

// Request ids are formatted by hand; they must stay byte-identical to the
// fmt.Sprintf("%s%d.%d") they replaced — dedup floors, journals and pinned
// transcripts key on them.
func TestBuilderIDMatchesSprintf(t *testing.T) {
	target := interp.EntityRef{Class: "Account", Key: "alice"}
	long := "a-prefix-longer-than-the-stack-buffer-the-builder-formats-into."
	for _, prefix := range []string{"", "q", "req-", "node.a-", long} {
		for _, inc := range []int{1, 9, 10, 12, 1234} {
			for _, seq := range []int{0, 1, 9, 10, 255, 256, 1_000_000, 1 << 40, -3} {
				got := NewIncarnation(prefix, inc).At(seq, target, "read", nil, "").Req
				if want := fmt.Sprintf("%s%d.%d", prefix, inc, seq); got != want {
					t.Errorf("id = %q, want %q", got, want)
				}
			}
		}
	}
	b := NewIncarnation("q", 12)
	if allocs := testing.AllocsPerRun(100, func() { _ = b.At(1_234_567, target, "read", nil, "") }); allocs > 1 {
		t.Errorf("At allocates %.0f objects, want only the id string", allocs)
	}
}

func TestSplitID(t *testing.T) {
	src, seq, ok := SplitID("api-1.42")
	if !ok || src != "api-1" || seq != 42 {
		t.Fatalf("SplitID(api-1.42) = %q %d %v", src, seq, ok)
	}
	// Prefixes containing dots split at the LAST dot.
	src, seq, ok = SplitID("node.a-3.7")
	if !ok || src != "node.a-3" || seq != 7 {
		t.Fatalf("SplitID(node.a-3.7) = %q %d %v", src, seq, ok)
	}
	// "0" is a sequence; the other spellings of one are ids of their own.
	if src, seq, ok = SplitID("cl.0"); !ok || src != "cl" || seq != 0 {
		t.Fatalf("SplitID(cl.0) = %q %d %v", src, seq, ok)
	}
	for _, id := range []string{"", "noseq", "x.", ".5", "x.-1", "x.5z", "cl.07", "cl.+3", "cl.-0", "cl.00"} {
		if _, _, ok := SplitID(id); ok {
			t.Fatalf("SplitID(%q) accepted a non-builder id", id)
		}
	}
}

package sim

import (
	"testing"
	"time"
)

// echo replies to every ping after a fixed latency, charging CPU.
type echo struct {
	cpu      time.Duration
	latency  time.Duration
	received []time.Duration
}

type ping struct{ n int }
type pong struct{ n int }

func (e *echo) OnMessage(ctx *Context, from string, msg Message) {
	switch m := msg.(type) {
	case ping:
		e.received = append(e.received, ctx.Now())
		ctx.Work(e.cpu)
		ctx.Send(from, pong{n: m.n}, e.latency)
	}
}

// probe sends pings on start and records pong arrival times.
type probe struct {
	sendAt []time.Duration
	pongs  map[int]time.Duration
}

func (p *probe) OnStart(ctx *Context) {
	for i, at := range p.sendAt {
		ctx.After(at, ping{n: i}) // timer to self, then forwarded
	}
}

func (p *probe) OnMessage(ctx *Context, from string, msg Message) {
	switch m := msg.(type) {
	case ping:
		ctx.Send("echo", m, time.Millisecond)
	case pong:
		p.pongs[m.n] = ctx.Now()
	}
}

func TestPingPongLatency(t *testing.T) {
	c := New(1)
	e := &echo{latency: 2 * time.Millisecond}
	p := &probe{sendAt: []time.Duration{0}, pongs: map[int]time.Duration{}}
	c.Add("echo", e)
	c.Add("probe", p)
	c.Start()
	c.RunUntil(time.Second)
	got, ok := p.pongs[0]
	if !ok {
		t.Fatal("no pong")
	}
	// 0 (timer) + 1ms (to echo) + 2ms (back).
	if got != 3*time.Millisecond {
		t.Fatalf("pong at %s, want 3ms", got)
	}
}

func TestSerialProcessorQueueing(t *testing.T) {
	// Echo takes 10ms CPU per ping; three pings arriving together must be
	// served back to back: pongs at 12, 22, 32ms.
	c := New(1)
	e := &echo{cpu: 10 * time.Millisecond, latency: time.Millisecond}
	p := &probe{sendAt: []time.Duration{0, 0, 0}, pongs: map[int]time.Duration{}}
	c.Add("echo", e)
	c.Add("probe", p)
	c.Start()
	c.RunUntil(time.Second)
	if len(p.pongs) != 3 {
		t.Fatalf("pongs: %d", len(p.pongs))
	}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		times = append(times, p.pongs[i])
	}
	want := []time.Duration{12 * time.Millisecond, 22 * time.Millisecond, 32 * time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("pong %d at %s, want %s (all %v)", i, times[i], want[i], times)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		c := New(99)
		e := &echo{cpu: time.Millisecond, latency: Latency{Base: time.Millisecond, Jitter: 5 * time.Millisecond}.Sample(c.Rand())}
		p := &probe{sendAt: []time.Duration{0, time.Millisecond, 2 * time.Millisecond}, pongs: map[int]time.Duration{}}
		c.Add("echo", e)
		c.Add("probe", p)
		c.Start()
		c.RunUntil(time.Second)
		out := make([]time.Duration, 3)
		for i := 0; i < 3; i++ {
			out[i] = p.pongs[i]
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCrashDropsMessages(t *testing.T) {
	c := New(1)
	e := &echo{latency: time.Millisecond}
	p := &probe{sendAt: []time.Duration{0, 10 * time.Millisecond}, pongs: map[int]time.Duration{}}
	c.Add("echo", e)
	c.Add("probe", p)
	c.Start()
	c.RunUntil(5 * time.Millisecond)
	c.Crash("echo")
	c.RunUntil(20 * time.Millisecond)
	if len(p.pongs) != 1 {
		t.Fatalf("pongs after crash: %d", len(p.pongs))
	}
	c.Restart("echo")
	// New ping after restart gets served.
	c.Inject(c.Now(), "probe", "probe", ping{n: 7})
	c.RunUntil(40 * time.Millisecond)
	if _, ok := p.pongs[7]; !ok {
		t.Fatal("restarted component did not serve")
	}
	if !c.IsCrashed("ghost") == false {
		t.Fatal("unknown component cannot be crashed")
	}
}

func TestRunUntilAdvancesClockPastQuietPeriods(t *testing.T) {
	c := New(1)
	p := &probe{sendAt: []time.Duration{500 * time.Millisecond}, pongs: map[int]time.Duration{}}
	c.Add("probe", p)
	c.Add("echo", &echo{})
	c.Start()
	// Step in 10ms increments; the clock must reach the horizon even
	// though the only event is far in the future.
	for i := 0; i < 10; i++ {
		c.RunUntil(c.Now() + 10*time.Millisecond)
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("clock: %s", c.Now())
	}
}

type loopForever struct{}

func (loopForever) OnStart(ctx *Context)                        { ctx.After(time.Millisecond, ping{}) }
func (loopForever) OnMessage(ctx *Context, _ string, _ Message) { ctx.After(time.Millisecond, ping{}) }

func TestDuplicateComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New(1)
	c.Add("x", &echo{})
	c.Add("x", &echo{})
}

func TestTieBreakBySequence(t *testing.T) {
	// Two messages at the identical instant deliver in send order.
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	c.Inject(time.Millisecond, "t", "rec", ping{n: 1})
	c.Inject(time.Millisecond, "t", "rec", ping{n: 2})
	c.RunUntil(time.Second)
	if len(rec.order) != 2 || rec.order[0] != 1 || rec.order[1] != 2 {
		t.Fatalf("order: %v", rec.order)
	}
}

type recorder struct{ order []int }

func (r *recorder) OnMessage(ctx *Context, _ string, msg Message) {
	if p, ok := msg.(ping); ok {
		r.order = append(r.order, p.n)
	}
}

func TestLatencySample(t *testing.T) {
	c := New(1)
	l := Latency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	for i := 0; i < 100; i++ {
		d := l.Sample(c.Rand())
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("sample out of range: %s", d)
		}
	}
	fixed := Latency{Base: 3 * time.Millisecond}
	if fixed.Sample(c.Rand()) != 3*time.Millisecond {
		t.Fatal("jitterless latency must be exact")
	}
}

func TestWorkAccumulatesWithinHandler(t *testing.T) {
	c := New(1)
	w := &worker{}
	c.Add("w", w)
	c.Inject(0, "t", "w", ping{})
	c.RunUntil(time.Second)
	if w.sawNow != 7*time.Millisecond {
		t.Fatalf("Now after Work: %s", w.sawNow)
	}
}

type worker struct{ sawNow time.Duration }

func (w *worker) OnMessage(ctx *Context, _ string, _ Message) {
	ctx.Work(3 * time.Millisecond)
	ctx.Work(4 * time.Millisecond)
	w.sawNow = ctx.Now()
}

// TestCrashSemantics pins the crash contract down precisely: a message
// delivered to a crashed component is consumed from the queue but never
// handled, and neither Delivered nor the handler observe it.
func TestCrashSemantics(t *testing.T) {
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	c.Inject(time.Millisecond, "t", "rec", ping{n: 1})
	c.Inject(2*time.Millisecond, "t", "rec", ping{n: 2})
	if got := len(c.queue); got != 2 {
		t.Fatalf("pending after inject: %d, want 2", got)
	}
	c.Crash("rec")
	c.RunUntil(5 * time.Millisecond)
	if len(rec.order) != 0 {
		t.Fatalf("crashed component handled messages: %v", rec.order)
	}
	if c.Delivered != 0 {
		t.Fatalf("Delivered counted dropped messages: %d", c.Delivered)
	}
	if got := len(c.queue); got != 0 {
		t.Fatalf("pending after dropped deliveries: %d, want 0 (messages are consumed, not retained)", got)
	}
	c.Restart("rec")
	c.Inject(c.Now(), "t", "rec", ping{n: 3})
	c.RunUntil(10 * time.Millisecond)
	if len(rec.order) != 1 || rec.order[0] != 3 || c.Delivered != 1 {
		t.Fatalf("post-restart delivery: order=%v delivered=%d", rec.order, c.Delivered)
	}
}

// starter is a recorder that logs its OnStart call.
type starter struct {
	recorder
	name    string
	started *[]string
}

func (s *starter) OnStart(*Context) { *s.started = append(*s.started, s.name) }

// TestInboxBalancedForLateAdd: a message enqueued before its target is
// registered is served once the target is added, and Start still runs in
// registration order though the late name holds the lower address. A
// message to a name never registered is consumed, never handled and not
// counted.
func TestInboxBalancedForLateAdd(t *testing.T) {
	c := New(1)
	c.Inject(time.Millisecond, "t", "late", ping{n: 1})
	c.Inject(time.Millisecond, "t", "nobody", ping{n: 2})
	var started []string
	late := &starter{name: "late", started: &started}
	c.Add("early", &starter{name: "early", started: &started})
	c.Add("late", late)
	c.Start()
	c.RunUntil(10 * time.Millisecond)
	if len(started) != 2 || started[0] != "early" || started[1] != "late" {
		t.Fatalf("Start ran %v, want registration order [early late]", started)
	}
	if len(late.order) != 1 {
		t.Fatalf("late-added component not served: %v", late.order)
	}
	if len(c.queue) != 0 || c.Delivered != 1 {
		t.Fatalf("pending %d, delivered %d: want the unregistered name's message consumed and not counted", len(c.queue), c.Delivered)
	}
}

// TestRestartResetsBusyUntil: CPU backlog charged before a crash must not
// delay work handled after the restart.
func TestRestartResetsBusyUntil(t *testing.T) {
	c := New(1)
	e := &echo{cpu: 500 * time.Millisecond, latency: time.Millisecond}
	p := &probe{sendAt: []time.Duration{0}, pongs: map[int]time.Duration{}}
	c.Add("echo", e)
	c.Add("probe", p)
	c.Start()
	// First ping reaches echo at 1ms and charges 500ms of CPU.
	c.RunUntil(2 * time.Millisecond)
	c.Crash("echo")
	c.RunUntil(10 * time.Millisecond)
	c.Restart("echo")
	// Cheapen the handler so the post-restart response time is legible.
	e.cpu = 0
	c.Inject(c.Now(), "probe", "echo", ping{n: 9})
	c.RunUntil(20 * time.Millisecond)
	// Served at ~10ms + 1ms reply latency, NOT after the stale 501ms
	// busyUntil left over from before the crash.
	got, ok := p.pongs[9]
	if !ok {
		t.Fatal("restarted component never served")
	}
	if got != 11*time.Millisecond {
		t.Fatalf("post-restart pong at %s, want 11ms (busyUntil must reset)", got)
	}
}

// TestCrashUntilHoldsDownRestart: a component crashed with a hold-down
// window ignores Restart until the window ends.
func TestCrashUntilHoldsDownRestart(t *testing.T) {
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	c.RunUntil(time.Millisecond)
	c.CrashUntil("rec", 10*time.Millisecond)
	c.Restart("rec") // too early: ignored
	if !c.IsCrashed("rec") {
		t.Fatal("Restart during hold-down must be a no-op")
	}
	c.RunUntil(10 * time.Millisecond)
	c.Restart("rec")
	if c.IsCrashed("rec") {
		t.Fatal("Restart after hold-down must succeed")
	}
}

// TestInjectClampsAtNow: an injection scheduled in the past delivers at
// the current instant, never before it.
func TestInjectClampsAtNow(t *testing.T) {
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	c.RunUntil(50 * time.Millisecond)
	c.Inject(10*time.Millisecond, "t", "rec", ping{n: 1}) // in the past
	c.RunUntil(50 * time.Millisecond)                     // no clock progress needed
	if len(rec.order) != 1 {
		t.Fatalf("clamped injection not delivered: %v", rec.order)
	}
	if c.Now() != 50*time.Millisecond {
		t.Fatalf("clock moved backwards: %s", c.Now())
	}
}

// TestScheduleAtRunsInTimeOrder: scheduled actions interleave with
// deliveries by (time, sequence) and clamp to now like Inject.
func TestScheduleAtRunsInTimeOrder(t *testing.T) {
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	var fired []time.Duration
	c.ScheduleAt(3*time.Millisecond, func(cl *Cluster) { fired = append(fired, cl.Now()) })
	c.ScheduleAt(-time.Hour, func(cl *Cluster) { fired = append(fired, cl.Now()) }) // clamped to 0
	c.Inject(2*time.Millisecond, "t", "rec", ping{n: 1})
	c.RunUntil(time.Second)
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 3*time.Millisecond {
		t.Fatalf("actions fired at %v", fired)
	}
	if len(rec.order) != 1 {
		t.Fatalf("delivery lost around scheduled actions: %v", rec.order)
	}
}

// TestPerturbDropDelayDuplicate exercises every verdict of the delivery
// interceptor and its self-send exemption.
func TestPerturbDropDelayDuplicate(t *testing.T) {
	c := New(1)
	rec := &recorder{}
	c.Add("rec", rec)
	var seen int
	c.SetPerturb(func(from, to string, at time.Duration, msg Message) Perturb {
		seen++
		p := msg.(ping)
		switch p.n {
		case 1:
			return Perturb{Drop: true}
		case 2:
			return Perturb{Delay: 5 * time.Millisecond}
		case 3:
			return Perturb{Duplicate: true, DupDelay: time.Millisecond}
		}
		return Perturb{}
	})
	c.Inject(time.Millisecond, "t", "rec", ping{n: 1})
	c.Inject(time.Millisecond, "t", "rec", ping{n: 2})
	c.Inject(time.Millisecond, "t", "rec", ping{n: 3})
	c.RunUntil(time.Second)
	if want := []int{3, 3, 2}; len(rec.order) != 3 || rec.order[0] != want[0] || rec.order[1] != want[1] || rec.order[2] != want[2] {
		t.Fatalf("perturbed order: %v, want %v (drop 1, duplicate 3, delay 2 past the dup)", rec.order, want)
	}
	if seen != 3 {
		t.Fatalf("interceptor consulted %d times, want 3 (duplicates are not re-perturbed)", seen)
	}
	// Self-sends bypass the interceptor entirely.
	seen = 0
	c.Add("timer", loopForever{})
	c.Inject(c.Now(), "timer", "timer", ping{})
	c.RunUntil(c.Now() + 2*time.Millisecond)
	if seen != 0 {
		t.Fatalf("self-sends were perturbed %d times", seen)
	}
	c.SetPerturb(nil)
}

// TestTapSeesTimersAndChangesNothing: the tap observes timers and network
// sends alike, with the sender's clock and the delivery time, and the run it
// observes delivers exactly what the untapped run does.
func TestTapSeesTimersAndChangesNothing(t *testing.T) {
	run := func(tap TapFunc) map[int]time.Duration {
		c := New(1)
		c.Add("echo", &echo{cpu: time.Millisecond, latency: 2 * time.Millisecond})
		p := &probe{sendAt: []time.Duration{0, 3 * time.Millisecond}, pongs: map[int]time.Duration{}}
		c.Add("probe", p)
		c.SetTap(tap)
		c.Start()
		c.RunUntil(time.Second)
		return p.pongs
	}
	type send struct {
		from, to   string
		sentAt, at time.Duration
	}
	var seen []send
	tapped := run(func(from, to string, sentAt, at time.Duration, _ Message) {
		seen = append(seen, send{from, to, sentAt, at})
	})
	plain := run(nil)
	if len(tapped) != 2 || tapped[0] != plain[0] || tapped[1] != plain[1] {
		t.Fatalf("tapped run delivered pongs at %v, untapped at %v", tapped, plain)
	}
	// Per ping: the timer to self, the forward to echo and the pong back.
	want := []send{
		{"probe", "probe", 0, 0}, {"probe", "probe", 0, 3 * time.Millisecond},
		{"probe", "echo", 0, time.Millisecond}, {"echo", "probe", 2 * time.Millisecond, 4 * time.Millisecond},
		{"probe", "echo", 3 * time.Millisecond, 4 * time.Millisecond}, {"echo", "probe", 5 * time.Millisecond, 7 * time.Millisecond},
	}
	if len(seen) != len(want) {
		t.Fatalf("tap saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("tap saw %v, want %v", seen, want)
		}
	}
}

// rebooter records OnRestart invocations and sends a boot notice.
type rebooter struct {
	restarts []time.Duration
}

func (r *rebooter) OnMessage(ctx *Context, _ string, _ Message) {}

func (r *rebooter) OnRestart(ctx *Context) {
	r.restarts = append(r.restarts, ctx.Now())
	ctx.Send("rec", ping{n: 100 + len(r.restarts)}, time.Millisecond)
}

// TestRestartHandlerFiresOnReboot: OnRestart runs exactly once per actual
// crash→restart transition, at the restart instant, with a working
// Context; a Restart of a component that never crashed does not fire it,
// and neither does a Restart swallowed by a hold-down window.
func TestRestartHandlerFiresOnReboot(t *testing.T) {
	c := New(1)
	rb := &rebooter{}
	rec := &recorder{}
	c.Add("rb", rb)
	c.Add("rec", rec)
	c.Restart("rb") // never crashed: no reboot
	c.RunUntil(time.Millisecond)
	if len(rb.restarts) != 0 {
		t.Fatalf("OnRestart fired without a crash: %v", rb.restarts)
	}
	c.CrashUntil("rb", 10*time.Millisecond)
	c.Restart("rb") // held down: ignored
	c.RunUntil(10 * time.Millisecond)
	if len(rb.restarts) != 0 {
		t.Fatalf("OnRestart fired during hold-down: %v", rb.restarts)
	}
	c.Restart("rb")
	c.RunUntil(20 * time.Millisecond)
	if len(rb.restarts) != 1 || rb.restarts[0] != 10*time.Millisecond {
		t.Fatalf("OnRestart invocations: %v, want one at 10ms", rb.restarts)
	}
	if len(rec.order) != 1 || rec.order[0] != 101 {
		t.Fatalf("reboot hook sends not flushed: %v", rec.order)
	}
	// Second cycle fires again.
	c.Crash("rb")
	c.Restart("rb")
	c.RunUntil(30 * time.Millisecond)
	if len(rb.restarts) != 2 {
		t.Fatalf("second reboot not observed: %v", rb.restarts)
	}
}

// TestRestartHandlerSkippedWhenRecrashed: a new hold-down window imposed
// between the Restart and its scheduled boot event suppresses the boot
// (the fault schedule killed the machine again before it came up), and
// the component stays dead until a later restart succeeds.
func TestRestartHandlerSkippedWhenRecrashed(t *testing.T) {
	c := New(1)
	rb := &rebooter{}
	c.Add("rb", rb)
	c.Add("rec", &recorder{})
	c.RunUntil(time.Millisecond)
	c.Crash("rb")
	c.Restart("rb")
	c.CrashUntil("rb", 20*time.Millisecond) // dies again before the boot event runs
	c.RunUntil(10 * time.Millisecond)
	if len(rb.restarts) != 0 {
		t.Fatalf("boot ran on a re-crashed component: %v", rb.restarts)
	}
	if !c.IsCrashed("rb") {
		t.Fatal("component must stay dead until a post-hold restart")
	}
	c.RunUntil(20 * time.Millisecond)
	c.Restart("rb")
	c.RunUntil(30 * time.Millisecond)
	if len(rb.restarts) != 1 {
		t.Fatalf("post-hold restart did not boot: %v", rb.restarts)
	}
}

// TestRestartHandlerCrashCancelsPendingBoot: a plain Crash (no hold)
// issued between a Restart and its scheduled boot event wins — the
// machine never came up, so the boot is cancelled and the component
// stays dead until a later restart.
func TestRestartHandlerCrashCancelsPendingBoot(t *testing.T) {
	c := New(1)
	rb := &rebooter{}
	c.Add("rb", rb)
	c.Add("rec", &recorder{})
	c.RunUntil(time.Millisecond)
	c.Crash("rb")
	c.Restart("rb")
	c.Crash("rb") // re-killed before the boot event runs
	c.RunUntil(10 * time.Millisecond)
	if len(rb.restarts) != 0 {
		t.Fatalf("boot ran despite the later kill: %v", rb.restarts)
	}
	if !c.IsCrashed("rb") {
		t.Fatal("component must stay dead after the boot was cancelled")
	}
	c.Restart("rb")
	c.RunUntil(20 * time.Millisecond)
	if len(rb.restarts) != 1 {
		t.Fatalf("later restart did not boot: %v", rb.restarts)
	}
}

// TestRestartHandlerBlocksSameInstantDeliveries: a message landing at the
// exact restart instant (queued before the boot event) is dropped — the
// machine is up only once its boot completed, so no delivery can observe
// pre-reset state.
func TestRestartHandlerBlocksSameInstantDeliveries(t *testing.T) {
	c := New(1)
	rb := &rebooter{}
	rec := &recorder{}
	c.Add("rb", rb)
	c.Add("rec", rec)
	c.RunUntil(time.Millisecond)
	c.Crash("rb")
	// Schedule the restart, then queue a delivery for the same instant:
	// the ping's sequence number falls between the restart action and the
	// boot event it schedules, so it reaches the component mid-reboot.
	c.ScheduleAt(5*time.Millisecond, func(cl *Cluster) { cl.Restart("rb") })
	c.Inject(5*time.Millisecond, "t", "rb", ping{n: 1})
	c.RunUntil(10 * time.Millisecond)
	if len(rb.restarts) != 1 {
		t.Fatalf("boot did not run: %v", rb.restarts)
	}
	// The ping at the restart instant must have been dropped (it would
	// have been handled with pre-boot state); later traffic flows.
	c.Inject(c.Now(), "t", "rb", ping{n: 2})
	c.RunUntil(20 * time.Millisecond)
	if c.Delivered != 2 { // boot notice to rec + post-boot ping
		t.Fatalf("deliveries: %d (same-instant pre-boot message must be dropped)", c.Delivered)
	}
}

// TestWatchCrashFiresAtCrashInstant: crash watchers observe the exact
// virtual crash time, once per alive→dead transition.
func TestWatchCrashFiresAtCrashInstant(t *testing.T) {
	c := New(1)
	c.Add("rec", &recorder{})
	var seen []time.Duration
	c.WatchCrash("rec", func(at time.Duration) { seen = append(seen, at) })
	c.RunUntil(3 * time.Millisecond)
	c.Crash("rec")
	c.Crash("rec")                          // already dead: no second notification
	c.CrashUntil("rec", 9*time.Millisecond) // still dead: no notification
	c.RunUntil(9 * time.Millisecond)
	c.Restart("rec")
	c.RunUntil(12 * time.Millisecond)
	c.CrashUntil("rec", 15*time.Millisecond)
	if len(seen) != 2 || seen[0] != 3*time.Millisecond || seen[1] != 12*time.Millisecond {
		t.Fatalf("crash notifications: %v, want [3ms 12ms]", seen)
	}
}

func TestDeliveredCount(t *testing.T) {
	c := New(1)
	c.Add("rec", &recorder{})
	c.Inject(0, "t", "rec", ping{n: 1})
	c.Inject(0, "t", "rec", ping{n: 2})
	c.RunUntil(time.Second)
	if c.Delivered != 2 {
		t.Fatalf("delivered: %d", c.Delivered)
	}
}

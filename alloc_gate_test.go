package stateflow_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/bench"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/snapshot"
	"statefulentities.dev/stateflow/internal/state"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// allocGates are the checked-in ceilings of TestAllocsPerTransaction (and,
// second, of TestSystemAllocsPerTransaction, whose comment has theirs). The
// ycsb_m and hot_t ceilings sit about 10 % above what each run costs today
// (5.0 and 7.5; 5.1 and 8.9, with a hot_t ceiling of 9.8, while a contended
// epoch's fallback chain allocated its plan, both sides' progress through it
// and its decides' abort lists afresh, and a worker every list of buffered
// next-epoch events; 5.3 and 11.0 while every call chain allocated its context
// and every forwarded hop a body of its own; 6.0 and 12.6 while the source log and the journal's log
// were slices grown by append and the journal's log copied every payload
// into an allocation of its own; 7.6 and 15.6 while every batch member allocated its
// coordinator record, every transaction its txnWork on each worker it ran on
// and every fast read its record; 11.5 and 18.6 while a simple call allocated its frame and
// its slots, the source log boxed the request it had been handed a second
// time, every finish and read answer was a message of its own and every
// dispatch and read forward allocated its body; 12.3 and 24.4 while a call chain allocated every frame's
// slots and every call's arguments on their own, each forwarded hop
// allocated its event and then its message's box, and every epoch a
// validator and a copy of its decide's order; 12.9 and 25.4 while a delivered response's journal entry,
// 160 bytes with a 104-byte value inside, was over a map's 128-byte inline
// limit and allocated on its own; 15.4 and 34.6 while a workspace cloned every row it wrote,
// each worker boxed its apply ack and allocated every reservation node it
// shipped; 17.9 and 42.1 while an executor step returned a slice of
// heap events and every frame and call stack was allocated on its own;
// 18.3 and 43.8 while the epoch timer and every phase's
// stall check boxed their epoch, 18.5 and 45.3 while a suspending frame
// allocated its pruning mask and every flight-recorder call boxed its
// arguments, 20.1 and 52.5 while every epoch allocated its coordinator slot
// and worker epochs afresh, 20.3 and 55.5 while every continuation resumed
// on its caller's operator, 21.2 and 61.4 while a batch was validated by a
// prepare/vote wave, and the contended leg read 66.6 behind barrier
// rounds). The xshard ceiling sits about 9 % above today's 8.37 so that it
// pins the sequencer's forward of a single-shard request without re-boxing
// it (9.29 when the forward boxes a new interface value; 8.53, 8.55 under
// the race detector, with a ceiling of 9.3, while Row.Holds encoded the
// values it compares into a fresh buffer, and the re-boxed forward read
// 9.45; 10.85, 10.9 before the call chain's round became one
// object and 11.0 under the race detector, with a ceiling of 11.3, while
// every global batch allocated its sequencer records afresh and its fence
// acks cloned every row they read; 13.0 while the logs grew by append and a parked shard's
// release dropped the spare slot, so the epoch after each global batch
// allocated its slot and member records afresh; 14.4 while the member records, txnWorks and read records
// were allocated per request; 18.0 before simple calls bound their frames on the stack,
// the source log kept the request it received and finishes travelled back in
// their events' bodies; 19.5 before the call chain, the hop and the epoch's
// validator and order stopped allocating, 20.2 while a delivered response's journal entry was
// allocated on its own; 21.2 while a global batch kept its per-shard state in
// maps keyed by shard and sorted their keys on every loop; 26.1 while a
// workspace cloned its written rows, acks were boxed, shipped reservation
// nodes allocated and the apply id was formatted with fmt; 28.9 while an executor step returned a slice of heap events, 31.7
// while the timers boxed their epoch, 33.6 before the forward and the timers
// changed). The
// repository benchmark (benchmark/, a module `go test ./...` does not
// build) gates the same quantity as host_allocs_per_txn on these three
// workloads; this keeps a regression from waiting for a benchmark run.
// Lower them when the path gets cheaper.
//
// The byte ceilings sit about 10 % above what a transaction allocates
// today (537, 902 and 884 bytes on ycsb_m, hot_t and xshard, and 548, 915
// and 899 under the race detector; hot_t 958,
// with a ceiling of 1,055, while its fallback chains allocated their plans,
// progress and abort lists; 540, 958 and 885, the same
// to a byte in three runs in a row, and 549, 977 and 902 under the race
// detector, before; xshard 1,126, with a ceiling of 1,240, while every global batch
// allocated its sequencer records afresh and its fence acks cloned every row
// they read; 616, 1,734 and 1,142, and 625, 1,753
// and 1,160 under the race detector, while every call chain allocated its
// 448-byte context and every forwarded hop its 320-byte body, where a round
// now carries both in the body the coordinator dispatched; 776, 2,170 and 1,580 while the source log and the
// journal's log were slices grown by append, which allocates about five
// times a slice's final size, the journal's log copied every payload into
// an allocation of its own and a parked shard dropped its spare slot;
// 1,559, 3,743 and 2,230 while every batch member
// allocated its 576-byte coordinator record, every transaction a 512-byte
// txnWork on each worker it ran on and every fast read a 320-byte record,
// instead of reusing those an earlier epoch or read released;
// 1,630, 4,090–4,330 and 2,565 while the journal kept its records
// in a map keyed by request id, whose tables grew at points its per-process
// hash seed decided, so hot_t's bytes varied by 240 over nine runs at the
// same seed; 1,650, 4,150–4,400 and 2,620 while the journal
// kept a request in three maps — seen, staged and delivered — each growing
// tables of its own; 1,840, 4,250–4,460 and 2,790 before simple
// calls bound their frames on the stack, the source log kept the request it
// received and finishes travelled back in their events' bodies — a hop's
// body grew by the answer's value and error, 240 bytes to 320, and a batch
// member's record by its first dispatch's body, 448 to 576, which the
// allocations gone more than pay for; 1,950, 4,510–4,790 and 2,860 before the call chain, the hop and the
// epoch's validator and order stopped allocating; 2,290, 5,200 and 3,030
// while a value was 104 bytes, every kind's field side by side, so every
// frame, row slot, workspace buffer and hop event copied twice the words).
// The benchmark gates the same quantity as host_bytes_per_txn.
var allocGates = []allocGate{
	// The conflict-free path: ingress, epoch, execution, validation, apply,
	// group commit, response.
	{"ycsb_m", ycsb.WorkloadM, "uniform", 2000, 1, time.Second, ceilings{5.6, 595}, ceilings{1.6, 290}},
	// The contended path on top of it: all transfers on Zipfian keys, so a
	// fifth of the epochs abort somebody and re-execute the aborts as a
	// fallback chain (plan, per-worker queues, releases, the final decide).
	{"hot_t", ycsb.WorkloadT, "zipfian", 300, 1, 4 * time.Second, ceilings{8.2, 995}, ceilings{2.7, 560}},
	// The benchmark's xshard shape: the same mix on 4 shards, so every
	// request passes the sequencer, which forwards most of them to one
	// shard and runs the rest as global batches.
	{"xshard", ycsb.WorkloadM, "uniform", 1000, 4, 2 * time.Second, ceilings{9.1, 975}, ceilings{5.4, 680}},
}

// allocGate is one shape TestAllocsPerTransaction and
// TestSystemAllocsPerTransaction price.
type allocGate struct {
	name   string
	mix    ycsb.Mix
	dist   string
	rate   float64
	shards int
	short  time.Duration // the shorter of the two runs; the longer is 3x
	// endToEnd and system bound the two tests' readings.
	endToEnd, system ceilings
}

// ceilings bound the heap allocations and heap bytes a transaction makes.
type ceilings struct{ allocs, bytes float64 }

// run drives the gate's shape open-loop for d of virtual time on the
// simulated StateFlow runtime, as the bench harness runs a point, and
// returns the heap allocations it made and the transactions it answered.
// With system set, the client is a replayClient: the request stream is
// generated and boxed before the allocations are read, so they are the
// system's alone, the response each transaction is answered with included.
func (g allocGate) run(t *testing.T, d time.Duration, system bool) (mallocs, bytes uint64, answered int) {
	opt := bench.DefaultOptions()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := bench.Deploy(bench.Deployment{Seed: opt.Seed, System: "stateflow", Config: func(cfg *sfsys.Config) {
		cfg.EpochInterval = 5 * time.Millisecond
		cfg.Shards = g.shards
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Preload(opt.Records, ycsb.Loader(opt.Records, opt.PayloadBytes)); err != nil {
		t.Fatal(err)
	}
	chooser, err := ycsb.ChooserByName(g.dist, opt.Records)
	if err != nil {
		t.Fatal(err)
	}
	next := ycsb.NewGenerator(g.mix, chooser, opt.Records, opt.Seed+17, "q").Next
	var done, errors *int
	if system {
		c := newReplayClient(h.Backend, g.rate, d, opt.Seed, next)
		h.Cluster.Add("client", c)
		done, errors = &c.done, &c.errors
		runtime.GC()
		runtime.ReadMemStats(&before)
	} else {
		gen := h.Generate(g.rate, d, 0, next)
		done, errors = &gen.Done, &gen.Errors
	}
	h.Run(d + 10*time.Second)
	runtime.ReadMemStats(&after)
	if *errors != 0 || *done == 0 {
		t.Fatalf("%s: run of %s: %d answered, %d errors", g.name, d, *done, *errors)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, *done
}

// replayClient sends a request stream made before the run: Poisson
// arrivals at the gate's rate, each request drawn from the generator the
// end-to-end leg uses (the same ids, so the journal's window path runs) and
// boxed as the MsgRequest it sends. Per request it allocates nothing; it
// counts the answers and retries nothing.
type replayClient struct {
	sys          sysapi.System
	at           []time.Duration // arrival instants
	msgs         []sim.Message   // the boxed requests, in arrival order
	sent         int
	done, errors int
}

// msgReplayArrival is the replay client's arrival timer.
type msgReplayArrival struct{}

func newReplayClient(sys sysapi.System, rate float64, horizon time.Duration, seed int64,
	next func(i int) sysapi.Request) *replayClient {
	c := &replayClient{sys: sys}
	rng := rand.New(rand.NewSource(seed))
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(time.Second) / rate) }
	for at := gap(); at <= horizon; at += gap() {
		c.at = append(c.at, at)
		c.msgs = append(c.msgs, sysapi.MsgRequest{Request: next(len(c.msgs)), ReplyTo: "client"})
	}
	return c
}

// OnStart implements sim.StartHandler.
func (c *replayClient) OnStart(ctx *sim.Context) {
	if len(c.at) > 0 {
		ctx.After(c.at[0], msgReplayArrival{})
	}
}

// OnMessage implements sim.Handler.
func (c *replayClient) OnMessage(ctx *sim.Context, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case msgReplayArrival:
		ctx.Send(c.sys.IngressID(), c.msgs[c.sent], c.sys.ClientLink().Sample(ctx.Rand()))
		if c.sent++; c.sent < len(c.at) {
			ctx.After(c.at[c.sent]-ctx.Now(), msgReplayArrival{})
		}
	case sysapi.MsgResponse:
		c.done++
		if m.Response.Err != "" {
			c.errors++
		}
	}
}

// TestAllocsPerTransaction prices one transaction on the simulated
// StateFlow runtime in heap allocations and heap bytes, the load generator
// that drives it included, on the benchmark's uncontended, contended and sharded shapes.
// Two runs of the same seeded stream, one three times as long, are
// differenced, so compilation, deployment and preloading cancel and what is
// left is the marginal cost of a transaction.
//
// Every leg is checked before any reading is logged, so a failure is the
// first line the test reports.
func TestAllocsPerTransaction(t *testing.T) {
	var readings []string
	for _, g := range allocGates {
		readings = append(readings, g.check(t, false, g.endToEnd))
	}
	for _, r := range readings {
		t.Log(r)
	}
}

// TestSystemAllocsPerTransaction prices one transaction as
// TestAllocsPerTransaction does, without its client: the requests are made
// and boxed before the measured window (replayClient), so what is left is
// the system's own cost, the response box included. The end-to-end legs
// count the load generator and the retransmitter's request box as well,
// which on ycsb_m is most of the total, so a change that doubled the
// system's own allocations could pass them. The ceilings sit about 10 %
// above today's readings on hot_t, 2.42 allocations and 506 bytes, and
// 10 to 20 % above them on ycsb_m and xshard, 1.33 and 4.72 allocations
// and 261 and 608 bytes (2.44 and 511 on hot_t under the race detector;
// 1.43, 3.65 and 4.88 allocations and 263, 555 and
// 610 bytes on ycsb_m, hot_t and xshard, with hot_t ceilings of 4.0 and
// 615, while the fallback chains allocated their plans, progress and abort
// lists, a worker its buffered lists and Row.Holds an encoder; 1.44, 3.67
// and 4.89, and 265, 565 and 618, under the race detector then). On these
// legs the sequencer's re-boxed forward reads 5.64 allocations on xshard
// (5.80 before); an epoch's flight-recorder call without its guard 1.54,
// 4.20 and 5.41; and a re-boxed source-log record 1.97, 4.65 and 5.34
// (their kill commands are the end-to-end and epoch pins; those two were
// read before the chain's storage was kept).
func TestSystemAllocsPerTransaction(t *testing.T) {
	var readings []string
	for _, g := range allocGates {
		readings = append(readings, g.check(t, true, g.system))
	}
	for _, r := range readings {
		t.Log(r)
	}
}

// check runs the gate's two runs of one leg, differences them, fails if
// the reading is above gate and returns it.
func (g allocGate) check(t *testing.T, system bool, gate ceilings) string {
	t.Helper()
	shortAllocs, shortBytes, shortTxns := g.run(t, g.short, system)
	longAllocs, longBytes, longTxns := g.run(t, 3*g.short, system)
	txns := float64(longTxns - shortTxns)
	perTxn := float64(longAllocs-shortAllocs) / txns
	bytesPerTxn := float64(longBytes-shortBytes) / txns
	if perTxn > gate.allocs {
		t.Errorf("%s: %.2f allocations per transaction, ceiling %.2f: the request path grew a per-transaction allocation",
			g.name, perTxn, gate.allocs)
	}
	if bytesPerTxn > gate.bytes {
		t.Errorf("%s: %.0f bytes per transaction, ceiling %.0f: the request path allocates larger objects",
			g.name, bytesPerTxn, gate.bytes)
	}
	return fmt.Sprintf("%s: %.2f allocations, %.0f bytes per transaction (%d transactions)",
		g.name, perTxn, bytesPerTxn, longTxns-shortTxns)
}

// epochGate is TestAllocsPerEpoch's ceiling, just above what an epoch
// costs today (8.75) so that it pins the ack that echoes its decide
// (five more when each worker's apply ack boxes a value again), the
// flight-recorder guards (one more when every flight-recorder call boxes
// its arguments for a nil recorder) and the source log's keeping the request
// it was delivered (one more when the coordinator boxes it again); 11.0, with
// a ceiling of 11.5 that neither single allocation reached, while the
// transfer's call chain allocated its context and its hop a body; 13.1 while the source log and the
// journal's log grew by append and the journal's log copied each of the
// epoch's records into an allocation of its own; 16.2 while the transfer's member
// record and its txnWork on each of its two workers were allocated afresh
// instead of reused from a released epoch; 19.5 while the transfer's request was
// boxed again for the source log, its finish was a message of its own and
// its dispatch allocated its body, 26.1 while the transfer's call chain
// allocated its frames' slots and its call's arguments, its hop allocated
// its event and box apart, and the epoch its validator and a copy of its
// decide's order, 27.2 while a delivered response's
// journal entry was allocated on its own, 38.7 while the acks were boxed and every
// transaction's workspace cloned the rows it wrote, 39.7 with the
// flight-recorder calls unguarded as well, 46.4
// while an executor step returned a slice of heap events
// and every frame and call stack was allocated on its own, 53.6
// while the epoch timer and every phase's stall check boxed their epoch and
// only the timer closed a batch (47.4 with the boxing gone alone), 55.8 while a suspending frame also allocated its pruning mask, 66.8 while
// every epoch allocated its coordinator slot, round-0 order, ack set,
// worker epochs and workspace maps afresh.
const epochGate = 9.2

// TestAllocsPerEpoch prices one epoch in heap allocations: transfers on
// uniform keys arriving at 50 a second, so a batch closes as soon as its
// one transaction finishes and the fixed cost of
// an epoch — the coordinator's slot, its decide and acks, the worker epochs
// the batch reaches — is a large part of the total. Two runs of the same
// seeded stream, one three times as long, are differenced as in
// TestAllocsPerTransaction and divided by the epochs closed in between.
func TestAllocsPerEpoch(t *testing.T) {
	run := func(d time.Duration) (mallocs uint64, epochs int) {
		opt := bench.DefaultOptions()
		opt.Duration, opt.WarmUp = d, 0
		opt.Epoch = 5 * time.Millisecond
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pt, err := bench.RunPointFor("stateflow", "T", "uniform", 50, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Errors != 0 || pt.Epochs == 0 {
			t.Fatalf("run of %s: %d epochs, %d errors", d, pt.Epochs, pt.Errors)
		}
		return after.Mallocs - before.Mallocs, pt.Epochs
	}
	shortAllocs, shortEpochs := run(10 * time.Second)
	longAllocs, longEpochs := run(30 * time.Second)
	perEpoch := float64(longAllocs-shortAllocs) / float64(longEpochs-shortEpochs)
	t.Logf("%.2f allocations per epoch (%d epochs)", perEpoch, longEpochs-shortEpochs)
	if perEpoch > epochGate {
		t.Errorf("%.2f allocations per epoch, ceiling %.1f: an epoch grew a fixed allocation", perEpoch, epochGate)
	}
}

// TestSnapshotAllocatesOneImage prices a worker's snapshot write
// (snapshot.Store.WriteStore, what Worker.onSnapshot calls) in heap bytes:
// a store of N encoded bytes costs one buffer of N — not a private copy per
// row, an image assembled from those, and the snapshot store's copy of the
// image, which is what the benchmark's crash_big spent 86 % of its bytes
// on. And it leaves the rows as it found them: a dirty row is not handed a
// cached encoding that would sit in the live heap until its next write.
func TestSnapshotAllocatesOneImage(t *testing.T) {
	const rows, pad = 50, 64 << 10 // a crash_big worker's partition
	account := ir.NewClassLayout("Account", 0, []string{"balance", "payload"})
	st := state.NewStore(&ir.Layouts{ByClass: map[string]*ir.ClassLayout{"Account": account}, ByID: []*ir.ClassLayout{account}})
	ref := func(i int) interp.EntityRef { return interp.EntityRef{Class: "Account", Key: fmt.Sprintf("k%03d", i)} }
	for i := 0; i < rows; i++ {
		st.PutMap(ref(i), interp.MapState{"balance": interp.IntV(int64(i)), "payload": interp.StrV(string(make([]byte, pad)))})
	}
	clean, _ := st.Lookup(ref(0))
	cached := &clean.Encoding()[0]
	dirty, _ := st.Lookup(ref(1))

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	snaps := snapshot.NewStore(nil)
	id := snaps.Begin(1, nil)
	var n int
	var err error
	spent := allocated(func() { n, err = snaps.WriteStore(id, "w0", st) })
	if err != nil || n != len(st.Encode()) {
		t.Fatalf("WriteStore: %d bytes, err %v, the store encodes to %d", n, err, len(st.Encode()))
	}
	t.Logf("snapshot of %d encoded bytes allocated %d (%.2fx)", n, spent, float64(spent)/float64(n))
	if float64(spent) > 1.1*float64(n) {
		t.Fatalf("snapshot of %d encoded bytes allocated %d (%.2fx), ceiling 1.1x: an image is being built or copied twice",
			n, spent, float64(spent)/float64(n))
	}
	if &clean.Encoding()[0] != cached {
		t.Error("the snapshot dropped or rebuilt a clean row's cached encoding")
	}
	if got := allocated(func() { dirty.Encoding() }); got < pad {
		t.Errorf("encoding a dirty row after the snapshot allocated %d bytes: the snapshot left it a cached %d-byte copy", got, pad)
	}
}

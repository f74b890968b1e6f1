package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// runStep is the virtual time one RunUntil call advances: the traced run
// wraps each step in a span, and the untraced run steps the same way so
// both execute the identical call sequence.
const runStep = 100 * time.Millisecond

// streamSeed derives the seed of one request stream from the benchmark
// seed. Streams of one seed are independent samples of the same traffic.
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }

// recorder stands in the generator's place on the cluster and forwards
// everything to it, noting on the way what the generator does not keep:
// each generated request, the instant it was due and the instant its first
// response reached the client. It draws no randomness and sends nothing.
type recorder struct {
	gen  *sysapi.Generator
	now  time.Duration
	reqs []sysapi.Request
	sent []time.Duration
	// done is the first response's arrival per request; 0 means none yet
	// (no response can arrive at virtual time 0).
	done []time.Duration
	bad  []bool // Err response, or a transfer that did not return true
	dups int
}

func newRecorder(gen *sysapi.Generator, expect int) *recorder {
	r := &recorder{
		gen:  gen,
		reqs: make([]sysapi.Request, 0, expect),
		sent: make([]time.Duration, 0, expect),
		done: make([]time.Duration, 0, expect),
		bad:  make([]bool, 0, expect),
	}
	next := gen.Next
	gen.Next = func(i int) sysapi.Request {
		req := next(i)
		r.reqs = append(r.reqs, req)
		r.sent = append(r.sent, r.now)
		r.done = append(r.done, 0)
		r.bad = append(r.bad, false)
		return req
	}
	return r
}

func (r *recorder) OnStart(ctx *sim.Context) { r.gen.OnStart(ctx) }

func (r *recorder) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	r.now = ctx.Now()
	if m, ok := msg.(sysapi.MsgResponse); ok {
		r.observe(m.Response)
	}
	r.gen.OnMessage(ctx, from, msg)
}

func (r *recorder) observe(resp sysapi.Response) {
	_, seq, ok := sysapi.SplitID(resp.Req)
	if !ok || seq >= int64(len(r.done)) {
		return
	}
	if r.done[seq] != 0 {
		r.dups++ // a replay a client retry solicited; the generator drops it too
		return
	}
	r.done[seq] = r.now
	if resp.Err != "" || (r.reqs[seq].Method == "transfer" && !resp.Value.B) {
		r.bad[seq] = true
	}
}

// setupTimes are the host-time spans of one set-up, contiguous in this
// order: compile, build the system and preload, checkpoint, add the client.
type setupTimes struct {
	Compile, Preload, Checkpoint, Client time.Duration
}

// deployment is one freshly built system with its client, ready to start.
type deployment struct {
	w       *workload
	cluster *sim.Cluster
	sys     *sfsys.ShardedSystem
	gen     *sysapi.Generator
	rec     *recorder
	crashed int // crashPoints already armed
	setupAt time.Time
	setup   setupTimes
}

// deploy compiles the YCSB program and builds a fresh deployment of w that
// will receive the stream's requests at the given rate for window. It is
// the set-up the setup_s metric times (with the Cluster.Start that follows).
func deploy(w *workload, seed int64, rate float64, window time.Duration, tracer *obs.Tracer) (*deployment, error) {
	t0 := time.Now()
	prog, err := compiler.Compile(ycsb.Program())
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	t1 := time.Now()
	cluster := sim.New(seed)
	cfg := sfsys.DefaultConfig()
	cfg.Shards = w.Shards
	cfg.SnapshotEvery = w.SnapshotEvery
	cfg.SnapshotRetain = w.SnapshotRetain
	cfg.Tracer = tracer
	sys := sfsys.New(cluster, prog, cfg)
	load := ycsb.Loader(w.Records, w.PayloadBytes)
	for i := 0; i < w.Records; i++ {
		class, args := load(i)
		if err := sys.PreloadEntity(class, args...); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	t2 := time.Now()
	sys.CheckpointPreloadedState()
	t3 := time.Now()

	chooser, err := ycsb.ChooserByName(w.Dist, w.Records)
	if err != nil {
		return nil, err
	}
	wgen := ycsb.NewGenerator(w.Mix, chooser, w.Records, seed+17, "q")
	gen := sysapi.NewGenerator("client", sys, rate, window, warmUp, wgen.Next)
	gen.RetryEvery = w.RetryEvery
	rec := newRecorder(gen, int(rate*window.Seconds()*1.1)+64)
	cluster.Add(gen.ID, rec)

	d := &deployment{w: w, cluster: cluster, sys: sys, gen: gen, rec: rec, setupAt: t0}
	d.setup = setupTimes{Compile: t1.Sub(t0), Preload: t2.Sub(t1), Checkpoint: t3.Sub(t2), Client: time.Since(t3)}
	return d, nil
}

// crashPoints is crash_big's fault plan. A recovery replays whatever was
// released since the last sealed snapshot, so its length depends on where
// in the snapshot cycle the crash lands; a crash at a fixed virtual time
// lands at a different phase for every request stream (epochs stretch with
// the traffic), and the outage then varies by +-15 % from stream to stream.
// The plan therefore pins the phase instead of the time: each crash comes
// crashDelay after the given number of snapshots exist (the preload
// checkpoint is the first), and stream-to-stream variation drops to 4 %.
var crashPoints = []struct {
	Role           string
	AfterSnapshots int
}{{"coordinator", 3}, {"worker", 7}}

const (
	crashDelay    = 600 * time.Millisecond
	crashDowntime = 300 * time.Millisecond
)

// armCrashes installs the next crash once its snapshot exists. Pinned
// victims draw nothing from the cluster RNG, so the request stream is the
// one an uncrashed run would see.
func (d *deployment) armCrashes(now time.Duration) {
	if d.crashed == len(crashPoints) {
		return
	}
	p := crashPoints[d.crashed]
	if d.sys.Single().Snapshots.Count() < p.AfterSnapshots {
		return
	}
	chaos.Install(d.cluster, d.sys.ChaosTopology(), chaos.Plan{
		Name:    d.w.Name,
		Crashes: []chaos.Crash{{Role: p.Role, At: now + crashDelay, Downtime: crashDowntime, Pinned: true}},
	})
	d.crashed++
}

// hostCost is what running one slice cost the Go process.
type hostCost struct {
	Wall           time.Duration
	Mallocs, Bytes uint64
	GCs            uint32
	GCPause        time.Duration
	LiveHeap       uint64 // HeapAlloc after a forced GC, deployment reachable
	Events         int
	Answered       int
}

// runHooks let a caller watch a run without changing it.
type runHooks struct {
	// Tracer is attached to the deployment through Config.Tracer.
	Tracer *obs.Tracer
	// Step is called after every RunUntil with its event count and the
	// host time it took (the traced run's spans).
	Step func(until time.Duration, events int, took time.Duration)
	// Abort is asked after every RunUntil whether to stop early (a ladder
	// probe that can no longer pass).
	Abort func(d *deployment, now time.Duration) bool
}

// run starts the deployment and steps it until every request is answered
// or the drain deadline passes, measuring the host cost of exactly that.
func (d *deployment) run(hooks runHooks) hostCost {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	d.cluster.Start()
	var c hostCost
	deadline := d.gen.Horizon + d.w.Drain
	for until := runStep; until <= deadline; until += runStep {
		s0 := time.Now()
		n := d.cluster.RunUntil(until)
		c.Events += n
		if d.w.Crashes {
			d.armCrashes(until)
		}
		if hooks.Step != nil {
			hooks.Step(until, n, time.Since(s0))
		}
		if hooks.Abort != nil && hooks.Abort(d, until) {
			break
		}
		if until > d.gen.Horizon && d.gen.Done == d.gen.Submitted {
			break
		}
	}
	c.Wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	c.Mallocs = after.Mallocs - before.Mallocs
	c.Bytes = after.TotalAlloc - before.TotalAlloc
	c.GCs = after.NumGC - before.NumGC
	c.GCPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	c.LiveHeap = after.HeapAlloc - calibFootprint
	runtime.KeepAlive(d)
	c.Answered = d.gen.Done
	return c
}

// virtResult is everything a slice reports in virtual time or as a count;
// it is a pure function of (workload, stream seed, rate, window), which
// the benchmark asserts by comparing repeated slices with ==.
type virtResult struct {
	Submitted, Answered, Failed int
	Samples                     int
	P50, P99, TailP99, Outage   time.Duration
	Retries, Dups               int
	Events                      int
	Digest                      uint64
}

// measure reduces the recorder's per-request log to the virtual metrics.
// failed marks requests the oracle rejected (see checkSlice); a request
// with no response, an Err response or a failed check counts as failed
// and its latency as infinite.
func (d *deployment) measure(failed []bool, events int) (virtResult, []time.Duration) {
	r := d.rec
	v := virtResult{Submitted: d.gen.Submitted, Answered: d.gen.Done, Retries: d.gen.Retried(), Dups: r.dups, Events: events}
	const never = time.Duration(1<<63 - 1)
	lat := make([]time.Duration, 0, len(r.sent))
	var tail, arrivals []time.Duration
	tailFrom := d.gen.Horizon - d.gen.Horizon/5
	for i, sent := range r.sent {
		bad := r.done[i] == 0 || r.bad[i] || failed[i]
		if bad {
			v.Failed++
		}
		if r.done[i] != 0 && r.done[i] >= warmUp && r.done[i] <= d.gen.Horizon {
			arrivals = append(arrivals, r.done[i])
		}
		if sent < warmUp {
			continue
		}
		l := never
		if !bad {
			l = r.done[i] - sent
		}
		lat = append(lat, l)
		if sent >= tailFrom {
			tail = append(tail, l)
		}
	}
	v.Samples = len(lat)
	v.P50, v.P99 = percentile(lat, 0.50), percentile(lat, 0.99)
	v.TailP99 = percentile(tail, 0.99)
	v.Digest = d.digest()
	// Longest interval of the measured window with no response arriving.
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	last := warmUp
	for _, at := range append(arrivals, d.gen.Horizon) {
		if at-last > v.Outage {
			v.Outage = at - last
		}
		last = at
	}
	return v, lat
}

// digest hashes every response's arrival instant and every committed
// balance: two slices with equal digests saw the same schedule and ended
// in the same state.
func (d *deployment) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		_, _ = h.Write(b[:])
	}
	for _, at := range d.rec.done {
		put(int64(at))
	}
	for i := 0; i < d.w.Records; i++ {
		st, _ := d.sys.EntityState("Account", ycsb.Key(i))
		put(st["balance"].I)
	}
	return h.Sum64()
}

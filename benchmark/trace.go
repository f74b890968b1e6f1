package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// The traced run produces the per-layer ledger from outside the program:
//
//	B  the benchmark's own host-time spans around every call it makes
//	   into a layer's public function, kept in memory and written as one
//	   trace-event JSON per workload at the end;
//	T  the system's virtual-time Tracer, attached through Config.Tracer,
//	   written beside it and read back for the mean duration per span;
//	C  counters the system exports, read after the slice;
//	D  the layer drivers (layers.go);
//	M  an allocation profile (MemProfileRate 1) of one more slice, each
//	   record charged to the innermost frame inside this module.
//
// End-to-end metrics never come from here. The traced slice must
// reproduce the untraced slice's virtual result exactly (the Tracer's
// inertness contract), and the host difference between the two is
// obs.trace_overhead_share.

// hostSpan is one of the benchmark's own spans.
type hostSpan struct {
	Name       string
	Start, End time.Duration // since the span log began
	Parent     int           // index of the enclosing span; -1 at top level
	Events     int           // simulator events, for RunUntil steps
}

// spanLog collects host-time spans in memory.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []hostSpan
	open     []int
}

func newSpanLog(workload string) *spanLog { return &spanLog{workload: workload, t0: time.Now()} }

func (l *spanLog) parent() int {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// do runs f inside a span.
func (l *spanLog) do(name string, f func()) {
	id := len(l.spans)
	l.spans = append(l.spans, hostSpan{Name: name, Start: time.Since(l.t0), Parent: l.parent()})
	l.open = append(l.open, id)
	f()
	l.open = l.open[:len(l.open)-1]
	l.spans[id].End = time.Since(l.t0)
}

// add records a span that already ended, under the span now open.
func (l *spanLog) add(name string, start time.Time, took time.Duration, events int) {
	at := start.Sub(l.t0)
	l.spans = append(l.spans, hostSpan{Name: name, Start: at, End: at + took, Parent: l.parent(), Events: events})
}

// write renders the spans as Chrome trace-event JSON (Perfetto opens it).
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		args := map[string]any{"id": i, "parent": s.Parent, "workload": l.workload}
		if s.Events > 0 {
			args["events"] = s.Events
		}
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// spanStats is what the ledger needs from the system's virtual-time
// trace: per span name the count and total duration, and per lane the
// instants of its epoch advances.
type spanStats struct {
	count    map[string]int
	total    map[string]time.Duration
	advances map[int][]time.Duration
}

// meanMs is the mean duration of the named span in ms; 0 if it never ran.
func (s *spanStats) meanMs(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return ms(s.total[name]) / float64(s.count[name])
}

// epochAdvanceMs is the mean virtual time between a coordinator's
// consecutive epoch advances.
func (s *spanStats) epochAdvanceMs() float64 {
	var sum time.Duration
	n := 0
	for _, at := range s.advances {
		for i := 1; i < len(at); i++ {
			sum += at[i] - at[i-1]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// readTrace parses Tracer.WriteJSON output. The Tracer keeps its events
// private, so the serialized trace is the only outside view of them.
func readTrace(buf []byte) (*spanStats, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("system trace: %w", err)
	}
	s := &spanStats{count: map[string]int{}, total: map[string]time.Duration{}, advances: map[int][]time.Duration{}}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X":
			s.count[e.Name]++
			s.total[e.Name] += time.Duration(e.Dur * 1e3)
		case e.Ph == "i" && e.Name == "epoch.advance":
			s.advances[e.Tid] = append(s.advances[e.Tid], time.Duration(e.Ts*1e3))
		}
	}
	return s, nil
}

// allocBuckets are the packages allocation records are charged to, in the
// order the ledger lists them; anything else inside or outside the module
// (core, queue, compiler, workload, the benchmark itself) is "other".
var allocBuckets = map[string]string{
	"internal/sim":               "sim",
	"internal/interp":            "interp",
	"internal/state":             "state",
	"internal/snapshot":          "state",
	"internal/txn/aria":          "aria",
	"internal/dlog":              "dlog",
	"internal/systems/stateflow": "systems_stateflow",
	"internal/systems/sysapi":    "sysapi",
	"internal/obs":               "obs",
	"internal/metrics":           "obs",
}

const modulePath = "statefulentities.dev/stateflow/"

// bucketOf charges one allocation stack to a bucket: the innermost frame
// whose function lives in this module decides.
func bucketOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, modulePath); ok {
			// rest is "internal/sim.(*Cluster).pushRaw": the package path
			// ends at the first dot after the last slash.
			slash := strings.LastIndexByte(rest, '/')
			dot := strings.IndexByte(rest[slash+1:], '.')
			if dot < 0 {
				return "other"
			}
			if b, ok := allocBuckets[rest[:slash+1+dot]]; ok {
				return b
			}
			return "other"
		}
		if !more {
			return "other"
		}
	}
}

type allocCount struct{ Objects, Bytes int64 }

// allocProfile reads the allocation profile, keyed by call stack. Two GCs
// first: the runtime publishes allocations to the profile two cycles late.
func allocProfile() map[[32]uintptr]allocCount {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]allocCount, len(recs))
	for _, r := range recs {
		c := out[r.Stack0]
		c.Objects += r.AllocObjects
		c.Bytes += r.AllocBytes
		out[r.Stack0] = c
	}
	return out
}

// attributeAllocs runs f with every allocation profiled and returns the
// objects and bytes f allocated per bucket.
func attributeAllocs(f func()) map[string]allocCount {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	before := allocProfile()
	f()
	after := allocProfile()
	runtime.MemProfileRate = old
	out := map[string]allocCount{}
	for stack, c := range after {
		b := before[stack]
		if c.Objects == b.Objects {
			continue
		}
		n := 0
		for n < len(stack) && stack[n] != 0 {
			n++
		}
		bucket := bucketOf(stack[:n])
		t := out[bucket]
		t.Objects += c.Objects - b.Objects
		t.Bytes += c.Bytes - b.Bytes
		out[bucket] = t
	}
	return out
}

// tracePairs is how many untraced/traced slice pairs the tracing overhead
// is averaged over.
const tracePairs = 2

// layerResult is one workload's traced run.
type layerResult struct {
	Workload          string
	Metrics           map[string]float64 // every per-layer metric
	Attempted, Failed int
	Problems          []string
	// Allocations per transaction: AllocTotal is the profiled slice's
	// MemStats count (what the allocation rows sum to), AllocProfiled the
	// part the profile saw, AllocUntraced the untraced slice's count.
	AllocTotal, AllocProfiled, AllocUntraced float64
	Files                                    []string
	Took                                     time.Duration
}

func (l *layerResult) report() report {
	return toReport(perLayer, l.Metrics, len(l.Problems) == 0 && l.Failed == 0, l.Attempted, l.Failed)
}

func (l *layerResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: per-layer ledger (traced run, %d requests attempted, %d failed, %.1fs)\n", l.Workload, l.Attempted, l.Failed, l.Took.Seconds())
	for _, m := range perLayer {
		fmt.Fprintf(out, "   %-36s %16.4f %-5s [%s] -> %s\n", m.Name, l.Metrics[m.Name], m.Unit, m.Source, m.Moves)
	}
	fmt.Fprintf(out, "   allocation rows sum to %.2f per txn (the profile saw %.2f); host_allocs_per_txn of the untraced slice is %.2f (%+.2f%%)\n",
		l.AllocTotal, l.AllocProfiled, l.AllocUntraced, 100*(l.AllocTotal/l.AllocUntraced-1))
	for _, f := range l.Files {
		fmt.Fprintf(out, "   wrote %s\n", f)
	}
	for _, p := range l.Problems {
		fmt.Fprintf(out, "   ORACLE: %s\n", p)
	}
}

// runTraced produces the per-layer ledger of one workload and writes the
// two traces into dir.
func runTraced(w *workload, seed int64, dir string) (*layerResult, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := newRunner(w, seed)
	res := &layerResult{Workload: w.Name, Metrics: map[string]float64{}}
	m := res.Metrics
	spans := newSpanLog(w.Name)
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	note := func(slice string, s *sliceRun) {
		res.Attempted += s.Virt.Submitted
		res.Failed += s.Virt.Failed
		for _, p := range s.Problems {
			res.Problems = append(res.Problems, slice+": "+p)
		}
	}

	// Untraced and traced slices of stream 0, alternating, after a
	// discarded warm-up; the last traced deployment is the one read below.
	var plain, traced *sliceRun
	var d *deployment
	var tracer *obs.Tracer
	var plainUs, tracedUs float64
	spans.do("slice.warmup", func() { _, _, e := r.slice(0, w.RefRPS, w.Window, runHooks{}); fail(e) })
	speed := newSpeedometer()
	for pair := 0; pair < tracePairs && err == nil; pair++ {
		spans.do("slice.untraced", func() {
			var e error
			if plain, _, e = r.slice(0, w.RefRPS, w.Window, runHooks{}); e == nil {
				plainUs += plain.usPerTxn(speed.lap())
			}
			fail(e)
		})
		tracer = obs.NewTracer()
		spans.do("slice.traced", func() {
			var e error
			traced, d, e = r.slice(0, w.RefRPS, w.Window, runHooks{
				Tracer: tracer,
				Step: func(until time.Duration, events int, took time.Duration) {
					spans.add("RunUntil "+until.String(), time.Now().Add(-took), took, events)
				},
			})
			if e == nil {
				tracedUs += traced.usPerTxn(speed.lap())
			}
			fail(e)
		})
		if err != nil {
			break
		}
		note("untraced slice", plain)
		note("traced slice", traced)
		if plain.Virt != traced.Virt {
			res.Problems = append(res.Problems, fmt.Sprintf("tracing is not inert:\n  untraced %+v\n  traced   %+v", plain.Virt, traced.Virt))
		}
	}
	if err != nil {
		return nil, err
	}
	// The set-up phases of the traced deployment, as spans after the fact:
	// they are contiguous from the deployment's start.
	at := d.setupAt
	for _, ph := range []struct {
		name string
		took time.Duration
	}{{"compiler.Compile", d.setup.Compile}, {"New+PreloadEntity", d.setup.Preload},
		{"CheckpointPreloadedState", d.setup.Checkpoint}, {"client", d.setup.Client}} {
		spans.add(ph.name, at, ph.took, 0)
		at = at.Add(ph.took)
	}
	m["compiler.compile_ms"] = ms(d.setup.Compile)
	m["setup.preload_ms"] = ms(d.setup.Preload)
	m["setup.checkpoint_ms"] = ms(d.setup.Checkpoint)

	// The two slices answered the same requests; host counts come from the
	// untraced one.
	txns := float64(plain.Host.Answered)
	m["obs.trace_overhead_share"] = 100 * (tracedUs/plainUs - 1)
	m["sim.events_per_txn"] = float64(plain.Host.Events) / txns
	m["gc.cycles_per_ktxn"] = float64(plain.Host.GCs) / txns * 1e3
	m["gc.pause_ms_per_ktxn"] = ms(plain.Host.GCPause) / txns * 1e3
	m["client.retries_per_txn"] = float64(plain.Virt.Retries) / txns

	// C: the system's own counters, summed over shards.
	spans.do("read counters", func() { d.counters(m, txns) })

	// T: the system's virtual-time trace.
	var trace bytes.Buffer
	spans.do("Tracer.WriteJSON", func() { fail(tracer.WriteJSON(&trace)) })
	if err != nil {
		return nil, err
	}
	sysTrace := filepath.Join(dir, w.Name+".system.trace.json")
	if err := os.WriteFile(sysTrace, trace.Bytes(), 0o644); err != nil {
		return nil, err
	}
	st, err := readTrace(trace.Bytes())
	if err != nil {
		return nil, err
	}
	m["aria.validate_virt_ms"] = st.meanMs("validate")
	m["aria.fallback_virt_ms"] = st.meanMs("fallback.round")
	m["dlog.commit_fsync_virt_ms"] = st.meanMs("commit.fsync")
	m["coordinator.ingress_queue_virt_ms"] = st.meanMs("ingress.queue")
	m["coordinator.execute_virt_ms"] = st.meanMs("execute")
	m["coordinator.apply_virt_ms"] = st.meanMs("apply")
	m["coordinator.epoch_advance_virt_ms"] = st.epochAdvanceMs()
	m["sequencer.fence_wait_virt_ms"] = st.meanMs("fence.wait")
	m["sequencer.global_execute_virt_ms"] = st.meanMs("global.execute")
	m["sequencer.apply_virt_ms"] = st.meanMs("__apply__")
	m["coordinator.fence_park_virt_ms"] = st.meanMs("fence.park")

	// M: one more slice of the same stream with every allocation profiled.
	var profiled *sliceRun
	var buckets map[string]allocCount
	spans.do("slice.memprofile", func() {
		buckets = attributeAllocs(func() {
			var e error
			profiled, _, e = r.slice(0, w.RefRPS, w.Window, runHooks{})
			fail(e)
		})
	})
	if err != nil {
		return nil, err
	}
	note("profiled slice", profiled)
	// The named buckets come from the profile; "other" is the remainder of
	// the slice's MemStats count, so it also holds what the profile cannot
	// see (tiny allocations that share a block are never sampled) and the
	// rows sum to the total by construction. The check that remains is that
	// profiling did not change the count: AllocTotal against the untraced
	// slice's.
	ptxns := float64(profiled.Host.Answered)
	res.AllocTotal = float64(profiled.Host.Mallocs) / ptxns
	res.AllocUntraced = float64(plain.Host.Mallocs) / float64(plain.Host.Answered)
	named := 0.0
	for _, b := range []string{"sim", "interp", "state", "aria", "dlog", "systems_stateflow", "sysapi", "obs"} {
		m[b+".allocs_per_txn"] = float64(buckets[b].Objects) / ptxns
		m[b+".bytes_per_txn"] = float64(buckets[b].Bytes) / ptxns
		named += m[b+".allocs_per_txn"]
	}
	m["other.allocs_per_txn"] = res.AllocTotal - named
	res.AllocProfiled = named + float64(buckets["other"].Objects)/ptxns
	if d := res.AllocTotal/res.AllocUntraced - 1; d > 0.02 || d < -0.02 {
		res.Problems = append(res.Problems, fmt.Sprintf("allocation rows sum to %.2f per txn, host_allocs_per_txn of the untraced slice is %.2f", res.AllocTotal, res.AllocUntraced))
	}

	// D: the layer drivers, on stream 0's requests.
	prog, err := compiler.Compile(ycsb.Program())
	if err != nil {
		return nil, err
	}
	reqs := d.rec.reqs
	spans.do("driver sim", func() { m["sim.ns_per_event"], m["sim.allocs_per_event"] = driveSim() })
	spans.do("driver runtime_local", func() {
		var e error
		m["runtime_local.us_per_txn"], m["runtime_local.allocs_per_txn"], e = driveLocal(w, prog, reqs)
		fail(e)
	})
	spans.do("driver interp row codec", func() {
		var e error
		m["interp.row_encode_ns"], m["interp.row_decode_ns"], m["interp.row_bytes"], e = driveRowCodec(w, prog)
		fail(e)
	})
	spans.do("driver state+snapshot", func() {
		var e error
		m["state.store_encode_ms"], m["state.store_decode_ms"], m["snapshot.write_ms"], m["snapshot.restore_ms"], e = driveStateStore(w, prog)
		fail(e)
	})
	spans.do("driver aria", func() { m["aria.validate_ns_per_txn"], m["aria.fallback_ns_per_txn"] = driveAria(w, reqs) })
	spans.do("driver dlog", func() {
		t, e := driveDlog(dir)
		fail(e)
		m["dlog.sim_append_ns"], m["dlog.sim_recover_ms"] = t.SimAppendNs, t.SimRecoverMs
		m["dlog.file_append_ns"], m["dlog.file_sync_us"], m["dlog.file_replay_ms"] = t.FileAppendNs, t.FileSyncUs, t.FileReplayMs
	})
	spans.do("driver queue", func() {
		var e error
		m["queue.produce_ns"], m["queue.fetch_ns"], e = driveQueue(reqs)
		fail(e)
	})
	if w.Name == "ycsb_m" {
		// The two context rows are 0 on the other workloads.
		spans.do("driver statefun", func() {
			p50, p99, e := driveStatefun(w, prog, seed)
			fail(e)
			m["statefun.virt_p50_ms"], m["statefun.virt_p99_ms"] = ms(p50), ms(p99)
		})
		spans.do("driver live", func() {
			var e error
			m["live.us_per_call"], e = driveLive(w, prog, reqs)
			fail(e)
		})
	}
	if err != nil {
		return nil, err
	}

	hostTrace := filepath.Join(dir, w.Name+".benchmark.trace.json")
	if err := spans.write(hostTrace); err != nil {
		return nil, err
	}
	res.Files = []string{hostTrace, sysTrace}
	res.Took = time.Since(t0)
	return res, nil
}

// counters reads the deployment's exported stat fields into the ledger.
func (d *deployment) counters(m map[string]float64, txns float64) {
	var commits, epochs, fbRounds, fbCommits, fbSpills, recoveries, replays, binding int
	var appends, appendedBytes, syncs, checkpoints, taken, retained int
	for _, sh := range d.sys.Shards() {
		c := sh.Coordinator()
		commits += c.Commits
		epochs += c.EpochsClosed
		fbRounds += c.FallbackRounds
		fbCommits += c.FallbackCommits
		fbSpills += c.FallbackSpills
		recoveries += c.Recoveries
		replays += c.Replays
		binding += c.BindingReplays
		if sh.Dlog != nil {
			st := sh.Dlog.Stats()
			appends += st.Appends
			appendedBytes += st.AppendedBytes
			syncs += st.Syncs
			checkpoints += st.Checkpoints
		}
		taken += sh.Snapshots.Count()
		retained += sh.Snapshots.Retained()
	}
	per := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["snapshot.taken"] = float64(taken)
	m["snapshot.retained"] = float64(retained)
	m["aria.fallback_rounds_per_epoch"] = per(fbRounds, epochs)
	m["aria.fallback_commit_share"] = 100 * per(fbCommits, commits)
	m["aria.fallback_spills"] = float64(fbSpills)
	m["dlog.appends_per_txn"] = float64(appends) / txns
	m["dlog.bytes_per_txn"] = float64(appendedBytes) / txns
	m["dlog.syncs_per_commit"] = per(syncs, commits)
	m["dlog.checkpoints"] = float64(checkpoints)
	m["coordinator.txns_per_epoch"] = per(commits, epochs)
	m["coordinator.epochs_closed"] = float64(epochs)
	m["coordinator.recoveries"] = float64(recoveries)
	m["coordinator.replays"] = float64(replays)
	m["coordinator.binding_replays"] = float64(binding)
	if q := d.sys.Sequencer(); q != nil {
		s := q.Stats()
		m["sequencer.global_share"] = 100 * per(s.GlobalTxns, s.GlobalTxns+s.SingleShard)
		m["sequencer.txns_per_batch"] = per(s.GlobalTxns, s.GlobalBatches)
		m["sequencer.scoped_fences"] = float64(s.ScopedFences)
		m["sequencer.failovers"] = float64(s.Failovers)
	}
}

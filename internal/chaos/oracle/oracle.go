// Package oracle checks the paper's transactional guarantees mechanically
// under generated failures: it runs a deterministic workload twice on the
// same simulated backend — once fault-free (the reference), once under a
// seeded chaos plan — and asserts that the chaos run is indistinguishable
// where the system's contract says it must be:
//
//   - exactly-once responses: every submitted request resolves, and the
//     system sends each response once plus at most one replay per client
//     solicitation (no lost responses, no unprompted duplicates);
//   - response equivalence: the chaos transcript (values and application
//     errors, not latencies or retry counts) is byte-identical to the
//     reference transcript;
//   - state equivalence: the committed state of every workload class is
//     byte-identical to the reference run's;
//   - workload invariants (banking balance conservation, TPC-C
//     payment/ytd consistency) hold on both runs.
//
// Workloads are built so their outcome is order-insensitive under the
// concurrency the oracle drives (disjoint key slots per in-flight wave,
// or commutative contended operations), which is what makes byte-level
// equivalence a sound oracle rather than a flaky one.
//
// The history oracle (adversarial.go) runs on the same driver: a run
// deploys a program, lets a script submit and settle its ops, quiesces,
// checks exactly-once delivery and reads the deployment's counters (finish);
// only the scripts differ, and both verdicts share one fault-free → chaos
// skeleton (verdict).
package oracle

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos"
)

// Op is one client invocation of a workload script.
type Op struct {
	Class, Key, Method string
	Args               []stateflow.Value
	Kind               string
}

// Invariant is a workload property checked against committed state.
type Invariant struct {
	Name  string
	Check func(admin stateflow.Admin) error
}

// Workload is a deterministic, seed-parameterized workload script plus
// the properties the oracle asserts over it.
type Workload struct {
	Name string
	// Source is the DSL entity program.
	Source string
	// Classes lists the entity classes whose committed state the oracle
	// diffs against the reference run.
	Classes []string
	// Preload installs the dataset (before the first call).
	Preload func(admin stateflow.Admin) error
	// Ops derives the op script from a seed.
	Ops func(seed int64) []Op
	// Window is how many ops are in flight concurrently.
	Window int
	// Contended marks workloads whose concurrent ops touch shared keys.
	// Their outcome is order-insensitive only under transactional
	// isolation, so on the non-transactional baseline (the paper's
	// motivating race, §3) the oracle drives them sequentially.
	Contended bool
	// Invariants are checked on both the reference and the chaos run.
	Invariants []Invariant
}

// window resolves the effective in-flight window for a backend.
func (w Workload) window(backend stateflow.Backend) int {
	win := w.Window
	if win <= 0 {
		win = 1
	}
	if w.Contended && backend != stateflow.BackendStateFlow {
		return 1
	}
	return win
}

// Run is the observable outcome of one workload execution.
type Run struct {
	// Transcript records per-op outcomes: values and application errors
	// only — the fields the failure contract promises are fault-invariant.
	Transcript string
	// StateDigest is the canonical dump of every workload class's
	// committed state.
	StateDigest string
	// Trace adds the fault-sensitive observables (per-op latencies,
	// delivery counts, virtual clock): byte-identical across reruns of
	// the same (workload, seed, plan), divergent across seeds.
	Trace string
	// Stats reports chaos activity (zero for reference runs).
	Stats chaos.Stats
	// Recoveries counts StateFlow coordinator recoveries (0 on the
	// baseline backend): evidence the crash windows and drops actually
	// exercised the rollback/replay path the run survived.
	Recoveries int
	// CoordRestarts counts coordinator reboots from the durable log (a
	// subset of Recoveries): evidence the coordinator crash window
	// actually exercised the dlog restart path.
	CoordRestarts int
	// MidPipelineRestarts counts the coordinator reboots that landed with
	// two epochs in flight (the commit slot occupied alongside the open
	// exec slot) — the overlap window the pipelined recovery must get
	// right: the committing epoch's responses replayed exactly once, the
	// open epoch re-executed, its possibly-volatile advance fenced.
	MidPipelineRestarts int
	// Replays counts responses the egress re-served from its durable
	// buffer to retrying clients.
	Replays int
	// FallbackDriftDemotions counts fallback chain members the coordinator
	// sent to the next batch because their re-execution left its queued
	// footprint (evidence the datadep profile actually provokes the drift
	// rule).
	FallbackDriftDemotions int
	// FallbackChains counts epochs whose conflict aborts re-executed as a
	// per-entity ordered chain (evidence the hotkey, chain and datadep
	// profiles run the fallback schedule at all).
	FallbackChains int
	// FastReads counts the read-only calls answered outside the epochs, on
	// StateFlow's fast-read path (evidence a profile's gets took it).
	FastReads int
	// Sequencer snapshots the sequencing layer's full counter set (zero
	// value unless Config.Shards > 1): transactions routed through it
	// (GlobalTxns — evidence the workload crossed shards rather than
	// degenerating into per-shard traffic), scoped vs full fence schedules,
	// sequencer failovers, batches re-derived from durable manifests or
	// abandoned. Floors over these prove the failover machinery ran.
	Sequencer stateflow.SequencerStats
	// FenceWindows lists every completed per-shard fence park observed in
	// the flight recorder, in park order. The adversarial sweep's
	// targeted sequencer crash is aimed where one batch's windows overlap
	// (see batchStretches).
	FenceWindows []FenceWindow
	// MidFenceAimed reports that VerifyAdversarial ran its targeted third
	// run — a sequencer crash aimed into an observed fence window — and
	// that the crash rolled a batch forward or abandoned one. False on a
	// seed whose plan keeps the sequencer down until the horizon (every
	// observed window opens past it), which is a property of the plan;
	// callers floor it per sweep leg or per pinned seed.
	MidFenceAimed bool
	// Flight is the cluster's flight-recorder dump (crashes, reboots,
	// epoch advances, fences, replay decisions in virtual-time order).
	// Verify appends it to failure reports so a failing seed arrives
	// with its timeline attached.
	Flight string
}

// Config tunes oracle runs.
type Config struct {
	// SnapshotEvery is the StateFlow snapshot cadence (batches).
	SnapshotEvery int
	// Epoch is the StateFlow batch interval.
	Epoch time.Duration
	// Horizon bounds chaos activity (and sizes generated plans).
	Horizon time.Duration
	// Timeout bounds each op's virtual-time wait.
	Timeout time.Duration
	// DisableFallback turns off the StateFlow backend's Aria fallback
	// phase (differential runs compare the two commit strategies).
	DisableFallback bool
	// DisablePipelining forces the StateFlow backend's serial epoch
	// schedule (differential runs compare it against the pipelined one).
	DisablePipelining bool
	// Shards deploys the StateFlow backend as that many coordinator
	// groups behind a global sequencer (0 or 1 keeps the classic
	// single-coordinator topology). Other backends ignore it.
	Shards int
	// FullFences forces the sequencer's historical fence-everything
	// schedule (the scoped-fence differential runs compare the two).
	FullFences bool
	// Traced attaches a transaction tracer to every run. Tracing is
	// deterministically inert, so a traced sweep must pass exactly as an
	// untraced one — CI runs a short traced sweep as the inertness pin.
	Traced bool
}

// DefaultConfig returns the sweep configuration.
func DefaultConfig() Config {
	return Config{
		SnapshotEvery: 3,
		Epoch:         5 * time.Millisecond,
		Horizon:       300 * time.Millisecond,
		Timeout:       2 * time.Minute,
	}
}

// script names what a run deploys.
type script struct {
	// name is a workload name or an adversarial profile, for errors.
	name    string
	source  string
	preload func(stateflow.Admin) error
	// tap turns on the coordinator's commit-order tap (SimConfig.TraceCommits),
	// the serial order the history checker validates against; the
	// byte-equality runs leave it off.
	tap bool
}

// deployment is one chaos run in progress: the simulation a script drives,
// plus the losses and trace lines the script records along the way.
type deployment struct {
	sim     *stateflow.Simulation
	client  stateflow.Client
	admin   stateflow.Admin
	name    string
	backend stateflow.Backend
	cfg     Config
	// lost counts ops without a response within cfg.Timeout, one losses line
	// each; any loss fails the run in finish.
	lost   int
	losses strings.Builder
	trace  strings.Builder
}

// deploy compiles and deploys s on backend, under plan when it is non-nil,
// and preloads its dataset.
func deploy(s script, backend stateflow.Backend, seed int64, plan *chaos.Plan, cfg Config) (*deployment, error) {
	prog, err := stateflow.Compile(s.source)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", s.name, err)
	}
	simCfg := stateflow.SimConfig{
		Backend:           backend,
		Seed:              seed,
		Epoch:             cfg.Epoch,
		SnapshotEvery:     cfg.SnapshotEvery,
		DisableFallback:   cfg.DisableFallback,
		DisablePipelining: cfg.DisablePipelining,
		TraceCommits:      s.tap,
		Shards:            cfg.Shards,
		FullFences:        cfg.FullFences,
	}
	if cfg.Traced {
		simCfg.Tracer = stateflow.NewTracer()
	}
	var opts []stateflow.SimOption
	if plan != nil {
		opts = append(opts, stateflow.WithChaos(*plan))
	}
	sim := stateflow.NewSimulation(prog, simCfg, opts...)
	d := &deployment{sim: sim, client: sim.Client(), name: s.name, backend: backend, cfg: cfg}
	d.admin = d.client.Admin()
	if s.preload != nil {
		if err := s.preload(d.admin); err != nil {
			return nil, fmt.Errorf("%s preload: %w", s.name, err)
		}
	}
	return d, nil
}

// windowed submits n ops window at a time, settling each wave in submission
// order before the next one goes out.
func windowed(n, window int, submit func(i int) *stateflow.Future, settle func(i int, f *stateflow.Future)) {
	for base := 0; base < n; base += window {
		futs := make([]*stateflow.Future, 0, window)
		for i := base; i < min(base+window, n); i++ {
			futs = append(futs, submit(i))
		}
		for i, f := range futs {
			settle(base+i, f)
		}
	}
}

// lose records an op that got no response within the virtual timeout. The
// run fails in finish: an op with unknown effects makes any verdict vacuous.
func (d *deployment) lose(format string, args ...any) {
	d.lost++
	fmt.Fprintf(&d.losses, "LOST "+format+"\n", args...)
}

func (d *deployment) errorf(format string, args ...any) error {
	return fmt.Errorf("%s on %s: "+format, append([]any{d.name, d.backend}, args...)...)
}

// finish closes a run whose script submitted ops requests: it fails on any
// loss, quiesces, checks exactly-once delivery and returns the chaos stats,
// the counters and the flight-recorder dump. A failed run still carries the
// dump.
func (d *deployment) finish(ops int) (Run, error) {
	if d.lost > 0 {
		return Run{Flight: d.sim.FlightRecorder().Dump()},
			d.errorf("%d/%d requests lost (no response within %s of virtual time):\n%s",
				d.lost, ops, d.cfg.Timeout, d.losses.String())
	}
	// Quiesce before judging: delayed duplicate deliveries must land, and any
	// crash window scheduled past the last response must open, be detected
	// and finish recovering (recovery replays re-commit work the clients
	// already saw; taps, digests and final state must observe the converged
	// state, not a replay in progress).
	d.sim.Run(max(d.cfg.Horizon-d.sim.Cluster.Now(), 0) + time.Second)

	deliveries := d.sim.ResponseDeliveries()
	if len(deliveries) != ops {
		return Run{Flight: d.sim.FlightRecorder().Dump()},
			d.errorf("%d raw-delivery records for %d ops", len(deliveries), ops)
	}
	stats := d.sim.ChaosStats()
	if bad := deliveryViolations(deliveries, stats, d.sim.ClientRetries()); len(bad) > 0 {
		return Run{Flight: d.sim.FlightRecorder().Dump()},
			d.errorf("%d requests violate the exactly-once delivery accounting (unsolicited duplicates or unexplained losses):\n%s",
				len(bad), strings.Join(bad, "\n"))
	}

	run := Run{Stats: stats, Flight: d.sim.FlightRecorder().Dump()}
	sh := d.sim.Sharded()
	if sh == nil {
		return run, nil // the baseline keeps no such counters
	}
	for _, shard := range sh.Shards() {
		c := shard.Coordinator()
		run.Recoveries += c.Recoveries
		run.CoordRestarts += c.Restarts
		run.MidPipelineRestarts += c.MidPipelineRestarts
		run.Replays += c.Replays
		run.FallbackDriftDemotions += c.FallbackDriftDemotions
		run.FallbackChains += c.FallbackChains
		run.FastReads += c.FastReads
	}
	if q := sh.Sequencer(); q != nil {
		run.Sequencer = q.Stats()
		run.FenceWindows = fenceWindows(d.sim.FlightRecorder().Events())
	}
	return run, nil
}

// deliveryViolations is the exactly-once check at the client edge, once
// every request has resolved. The raw delivery accounting separates what the
// wire did from what the system did: per id, the system's own sends are
//
//	sends = deliveries − injected response duplicates
//	              + injected response drops
//
// and a correct egress sends the original exactly once plus at most one
// replay per solicitation it could have seen (a client retry or an injected
// duplicate of the request). Fewer than one is a loss the wire does not
// explain; any excess is a duplicate the system emitted unprompted — with no
// drops and no retries the bound collapses to deliveries == 1 + injected
// duplicates. Returns one line per violating id, in id order.
func deliveryViolations(deliveries map[string]int, stats chaos.Stats, retries map[string]int) []string {
	var bad []string
	for _, id := range slices.Sorted(maps.Keys(deliveries)) {
		n, dups, drops := deliveries[id], stats.DupResponses[id], stats.DroppedResponses[id]
		sends := n - dups + drops
		if sends < 1 {
			bad = append(bad, fmt.Sprintf("UNDERDELIVERED %s: %d deliveries, %d dups, %d drops", id, n, dups, drops))
		} else if allowed := 1 + retries[id] + stats.DupRequests[id]; sends > allowed {
			bad = append(bad, fmt.Sprintf("DUPLICATE %s: system sent %d responses, allowed %d (deliveries %d, wire dups %d, wire drops %d, retries %d, request dups %d)",
				id, sends, allowed, n, dups, drops, retries[id], stats.DupRequests[id]))
		}
	}
	return bad
}

// verdict is the skeleton both oracles judge in: derive the seed's chaos
// plan, run once fault-free and once under it, and report a failure with
// the label and plan that reproduce it.
type verdict struct {
	label string
	plan  chaos.Plan
}

func newVerdict(label string, seed int64, cfg Config) verdict {
	return verdict{label: label, plan: chaos.FromSeed(seed, cfg.Horizon)}
}

func (v verdict) fail(format string, args ...any) error {
	return fmt.Errorf("%s plan=%s: %s", v.label, v.plan, fmt.Sprintf(format, args...))
}

// failRun fails with run's flight-recorder dump attached: the report then
// carries the cluster timeline (crashes, reboots, epoch advances, fences,
// replay decisions) next to the seed and plan that reproduce it.
func (v verdict) failRun(run Run, format string, args ...any) (Run, error) {
	err := v.fail(format, args...)
	if run.Flight != "" {
		err = fmt.Errorf("%w\n%s", err, run.Flight)
	}
	return run, err
}

// pair runs once fault-free, then under the plan.
func (v verdict) pair(once func(plan *chaos.Plan) (Run, error)) (ref, got Run, err error) {
	if ref, err = once(nil); err != nil {
		return Run{}, Run{}, v.fail("fault-free run failed: %v", err)
	}
	if got, err = once(&v.plan); err != nil {
		got, err = v.failRun(got, "chaos run failed: %v", err)
	}
	return ref, got, err
}

// RunOnce executes the workload once on a backend — fault-free when plan
// is nil, under the plan otherwise — and returns the observables.
func RunOnce(w Workload, backend stateflow.Backend, seed int64, plan *chaos.Plan, cfg Config) (Run, error) {
	d, err := deploy(script{name: w.Name, source: w.Source, preload: w.Preload}, backend, seed, plan, cfg)
	if err != nil {
		return Run{}, err
	}
	ops := w.Ops(seed)
	var transcript strings.Builder
	windowed(len(ops), w.window(backend), func(i int) *stateflow.Future {
		op := ops[i]
		return d.client.Entity(op.Class, op.Key).
			With(stateflow.WithKind(op.Kind), stateflow.WithTimeout(cfg.Timeout)).
			Submit(op.Method, op.Args...)
	}, func(i int, f *stateflow.Future) {
		op := ops[i]
		res, err := f.Wait()
		if err != nil {
			d.lose("op%03d %s<%s>.%s: %v", i, op.Class, op.Key, op.Method, err)
			return
		}
		fmt.Fprintf(&transcript, "op%03d %s<%s>.%s -> %s / err=%q\n",
			i, op.Class, op.Key, op.Method, res.Value.Repr(), res.Err)
		fmt.Fprintf(&d.trace, "op%03d latency=%s retries=%d\n", i, res.Latency, res.Retries)
	})
	run, err := d.finish(len(ops))
	if err != nil {
		return run, err
	}
	run.Transcript = transcript.String()
	run.StateDigest = stateDigest(d.admin, w.Classes)
	fmt.Fprintf(&d.trace, "delivered=%d now=%s recoveries=%d restarts=%d midpipeline=%d replays=%d\n",
		d.sim.Cluster.Delivered, d.sim.Cluster.Now(), run.Recoveries, run.CoordRestarts,
		run.MidPipelineRestarts, run.Replays)
	run.Trace = d.trace.String()
	for _, inv := range w.Invariants {
		if err := inv.Check(d.admin); err != nil {
			return run, d.errorf("invariant %q violated: %w", inv.Name, err)
		}
	}
	return run, nil
}

// FenceWindow is one completed per-shard fence park: the interval during
// which Node (a shard coordinator) was quiesced for global batch Seq and
// the sequencer had not yet released the batch.
type FenceWindow struct {
	Node string
	Seq  int64
	From time.Duration
	To   time.Duration
}

// fenceWindows pairs the shard coordinators' park/resume flight events
// into completed fence windows, in park order. Windows still open when
// the run quiesced are dropped — a targeted crash needs a bounded
// interval to land in. A crash of the parked node closes its window at
// the crash instant: the reboot re-derives the durable fence silently
// (no second park event), so pairing across the crash would weld the
// pre-crash park to a much later resume into one phantom mega-window
// whose midpoint may not be fenced at all. The sequencer's send of a
// batch's unfences closes every window of that batch: the shards stay
// parked until the unfences land, but a sequencer crash from the send on
// finds the batch finished, with nothing to roll forward or abandon.
func fenceWindows(events []stateflow.FlightEvent) []FenceWindow {
	open := map[string]FenceWindow{}
	var out []FenceWindow
	end := func(node string, w FenceWindow, at time.Duration) {
		if at > w.From {
			w.To = at
			out = append(out, w)
		}
		delete(open, node)
	}
	for _, ev := range events {
		switch ev.Kind {
		case "fence":
			w := FenceWindow{Node: ev.Node, From: ev.At}
			// The park's line names its batch ("parked for global batch 7").
			_, _ = fmt.Sscanf(ev.Detail, "parked for global batch %d", &w.Seq)
			open[ev.Node] = w
		case "unfence", "crash":
			if w, ok := open[ev.Node]; ok && ev.At > w.From {
				end(ev.Node, w, ev.At)
			}
		case "global.unfence":
			var seq int64
			_, _ = fmt.Sscanf(ev.Detail, "unfencing global batch %d", &seq)
			for node, w := range open {
				if w.Seq == seq {
					end(node, w, ev.At)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// stateDigest canonically dumps the committed state of the classes.
func stateDigest(admin stateflow.Admin, classes []string) string {
	var b strings.Builder
	for _, class := range classes {
		for _, key := range admin.Keys(class) {
			st, ok := admin.Inspect(class, key)
			if !ok {
				fmt.Fprintf(&b, "%s<%s> MISSING\n", class, key)
				continue
			}
			attrs := make([]string, 0, len(st))
			for a := range st {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			fmt.Fprintf(&b, "%s<%s>", class, key)
			for _, a := range attrs {
				fmt.Fprintf(&b, " %s=%s", a, st[a].Repr())
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Verify runs the workload fault-free and under the seed's chaos plan on
// one backend and asserts every oracle property, returning the chaos
// run's observables. The returned error, if any, embeds the seed and the
// full plan needed to reproduce the run.
func Verify(w Workload, backend stateflow.Backend, seed int64, cfg Config) (Run, error) {
	v := newVerdict(fmt.Sprintf("workload=%s backend=%s seed=%d", w.Name, backend, seed), seed, cfg)
	ref, got, err := v.pair(func(plan *chaos.Plan) (Run, error) { return RunOnce(w, backend, seed, plan, cfg) })
	switch {
	case err != nil:
		return got, err
	case got.Transcript != ref.Transcript:
		return v.failRun(got, "response transcripts diverge:\n--- reference ---\n%s--- chaos ---\n%s",
			ref.Transcript, got.Transcript)
	case got.StateDigest != ref.StateDigest:
		return v.failRun(got, "committed state diverges:\n--- reference ---\n%s--- chaos ---\n%s",
			ref.StateDigest, got.StateDigest)
	}
	return got, nil
}

// Package oracle checks the paper's transactional guarantees mechanically
// under generated failures: it runs a deterministic workload twice on the
// same simulated backend — once fault-free (the reference), once under a
// seeded chaos plan — and asserts that the chaos run is indistinguishable
// where the system's contract says it must be:
//
//   - exactly-once responses: every submitted request resolves, exactly
//     one raw response delivery reaches the client edge per request (no
//     lost responses, no duplicates the client had to suppress);
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
package oracle

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
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
	// footprint (adversarial runs; evidence the datadep profile actually
	// provokes the drift rule).
	FallbackDriftDemotions int
	// FallbackChains counts epochs whose conflict aborts re-executed as a
	// per-entity ordered chain (evidence the hotkey, chain and datadep
	// profiles run the fallback schedule at all).
	FallbackChains int
	// GlobalTxns counts transactions routed through the global sequencer
	// (zero unless the run deployed Config.Shards > 1): evidence the
	// workload actually exercised cross-shard histories rather than
	// degenerating into per-shard traffic.
	GlobalTxns int
	// Sequencer snapshots the sequencing layer's full counter set (zero
	// value unless Config.Shards > 1): scoped vs full fence schedules,
	// sequencer failovers, batches re-derived from durable manifests or
	// abandoned. Floors over these prove the failover machinery ran.
	Sequencer stateflow.SequencerStats
	// FenceWindows lists every completed per-shard fence park observed in
	// the flight recorder, in park order. The adversarial sweep's
	// targeted sequencer crash is aimed inside one of them.
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
	// Reinject re-opens fixed StateFlow bugs: regression tests re-introduce
	// a pre-fix hole and assert the adversarial checker catches it.
	Reinject sfsys.Reinject
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

// RunOnce executes the workload once on a backend — fault-free when plan
// is nil, under the plan otherwise — and returns the observables.
func RunOnce(w Workload, backend stateflow.Backend, seed int64, plan *chaos.Plan, cfg Config) (Run, error) {
	prog, err := stateflow.Compile(w.Source)
	if err != nil {
		return Run{}, fmt.Errorf("compile %s: %w", w.Name, err)
	}
	simCfg := stateflow.SimConfig{
		Backend:           backend,
		Seed:              seed,
		Epoch:             cfg.Epoch,
		SnapshotEvery:     cfg.SnapshotEvery,
		DisableFallback:   cfg.DisableFallback,
		DisablePipelining: cfg.DisablePipelining,
		Shards:            cfg.Shards,
		FullFences:        cfg.FullFences,
	}
	if cfg.Traced {
		simCfg.Tracer = stateflow.NewTracer()
	}
	var sim *stateflow.Simulation
	if plan != nil {
		sim = stateflow.NewSimulation(prog, simCfg, stateflow.WithChaos(*plan))
	} else {
		sim = stateflow.NewSimulation(prog, simCfg)
	}
	client := sim.Client()
	admin := client.Admin()
	if w.Preload != nil {
		if err := w.Preload(admin); err != nil {
			return Run{}, fmt.Errorf("%s preload: %w", w.Name, err)
		}
	}

	ops := w.Ops(seed)
	window := w.window(backend)
	var transcript, trace strings.Builder
	lost := 0
	for base := 0; base < len(ops); base += window {
		end := base + window
		if end > len(ops) {
			end = len(ops)
		}
		futs := make([]*stateflow.Future, 0, end-base)
		for _, op := range ops[base:end] {
			e := client.Entity(op.Class, op.Key).
				With(stateflow.WithKind(op.Kind), stateflow.WithTimeout(cfg.Timeout))
			futs = append(futs, e.Submit(op.Method, op.Args...))
		}
		for i, f := range futs {
			op := ops[base+i]
			res, err := f.Wait()
			if err != nil {
				lost++
				fmt.Fprintf(&transcript, "op%03d %s<%s>.%s -> LOST: %v\n",
					base+i, op.Class, op.Key, op.Method, err)
				continue
			}
			fmt.Fprintf(&transcript, "op%03d %s<%s>.%s -> %s / err=%q\n",
				base+i, op.Class, op.Key, op.Method, res.Value.Repr(), res.Err)
			fmt.Fprintf(&trace, "op%03d latency=%s retries=%d\n", base+i, res.Latency, res.Retries)
		}
	}
	if lost > 0 {
		return Run{Transcript: transcript.String(), Flight: sim.FlightRecorder().Dump()},
			fmt.Errorf("%s on %s: %d/%d requests lost (no response within %s of virtual time)",
				w.Name, backend, lost, len(ops), cfg.Timeout)
	}

	// Quiesce before judging: delayed duplicate deliveries must land, any
	// crash window scheduled past the last response must open, be
	// detected and finish recovering (recovery replays re-commit work the
	// clients already saw; the digest below must observe the converged
	// state, not a replay in progress).
	settle := cfg.Horizon - sim.Cluster.Now()
	if settle < 0 {
		settle = 0
	}
	sim.Run(settle + time.Second)

	// Exactly-once at the client edge. Every request resolved above; the
	// raw delivery accounting separates what the wire did from what the
	// system did. Per id, the system's own sends are
	//
	//	sends = deliveries − injected response duplicates
	//	              + injected response drops
	//
	// and a correct egress sends the original exactly once plus at most
	// one replay per solicitation it could have seen (a client retry or an
	// injected duplicate of the request). Any excess is a duplicate the
	// system emitted unprompted — the bug the old strict check caught,
	// still caught: with no drops and no retries the bound collapses to
	// deliveries == 1 + injected duplicates.
	deliveries := sim.ResponseDeliveries()
	if len(deliveries) != len(ops) {
		return Run{Flight: sim.FlightRecorder().Dump()},
			fmt.Errorf("%s on %s: %d raw-delivery records for %d ops",
				w.Name, backend, len(deliveries), len(ops))
	}
	stats := sim.ChaosStats()
	retries := sim.ClientRetries()
	bad := 0
	for id, n := range deliveries {
		sends := n - stats.DupResponses[id] + stats.DroppedResponses[id]
		if sends < 1 {
			bad++
			fmt.Fprintf(&trace, "UNDERDELIVERED %s: %d deliveries, %d dups, %d drops\n",
				id, n, stats.DupResponses[id], stats.DroppedResponses[id])
			continue
		}
		if allowed := 1 + retries[id] + stats.DupRequests[id]; sends > allowed {
			bad++
			fmt.Fprintf(&trace, "DUPLICATE %s: system sent %d responses, allowed %d (deliveries %d, wire dups %d, wire drops %d, retries %d, request dups %d)\n",
				id, sends, allowed, n, stats.DupResponses[id], stats.DroppedResponses[id],
				retries[id], stats.DupRequests[id])
		}
	}
	if bad > 0 {
		return Run{Flight: sim.FlightRecorder().Dump()},
			fmt.Errorf("%s on %s: %d requests violate the exactly-once delivery accounting (unsolicited duplicates or unexplained losses):\n%s",
				w.Name, backend, bad, trace.String())
	}

	run := Run{
		Transcript:  transcript.String(),
		StateDigest: stateDigest(admin, w.Classes),
		Stats:       stats,
		Flight:      sim.FlightRecorder().Dump(),
	}
	if sf := sim.StateFlow(); sf != nil {
		run.Recoveries = sf.Coordinator().Recoveries
		run.CoordRestarts = sf.Coordinator().Restarts
		run.MidPipelineRestarts = sf.Coordinator().MidPipelineRestarts
		run.Replays = sf.Coordinator().Replays
	} else if sh := sim.Sharded(); sh != nil {
		for _, shard := range sh.Shards() {
			c := shard.Coordinator()
			run.Recoveries += c.Recoveries
			run.CoordRestarts += c.Restarts
			run.MidPipelineRestarts += c.MidPipelineRestarts
			run.Replays += c.Replays
		}
		run.GlobalTxns = sh.Sequencer().GlobalTxns
		run.Sequencer = sh.Sequencer().Stats()
		run.FenceWindows = fenceWindows(sim.FlightRecorder().Events())
	}
	fmt.Fprintf(&trace, "delivered=%d now=%s recoveries=%d restarts=%d midpipeline=%d replays=%d\n",
		sim.Cluster.Delivered, sim.Cluster.Now(), run.Recoveries, run.CoordRestarts,
		run.MidPipelineRestarts, run.Replays)
	run.Trace = trace.String()

	for _, inv := range w.Invariants {
		if err := inv.Check(admin); err != nil {
			return run, fmt.Errorf("%s on %s: invariant %q violated: %w", w.Name, backend, inv.Name, err)
		}
	}
	return run, nil
}

// FenceWindow is one completed per-shard fence park: the interval during
// which Node (a shard coordinator) was quiesced for a global batch.
type FenceWindow struct {
	Node string
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
// whose midpoint may not be fenced at all.
func fenceWindows(events []stateflow.FlightEvent) []FenceWindow {
	open := map[string]time.Duration{}
	var out []FenceWindow
	for _, ev := range events {
		switch ev.Kind {
		case "fence":
			open[ev.Node] = ev.At
		case "unfence", "crash":
			if from, ok := open[ev.Node]; ok && ev.At > from {
				out = append(out, FenceWindow{Node: ev.Node, From: from, To: ev.At})
				delete(open, ev.Node)
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
	plan := chaos.FromSeed(seed, cfg.Horizon)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("workload=%s backend=%s seed=%d plan=%s: %s",
			w.Name, backend, seed, plan, fmt.Sprintf(format, args...))
	}

	ref, err := RunOnce(w, backend, seed, nil, cfg)
	if err != nil {
		return Run{}, fail("fault-free reference failed: %v", err)
	}
	got, err := RunOnce(w, backend, seed, &plan, cfg)
	if err != nil {
		return got, withFlight(fail("chaos run failed: %v", err), got.Flight)
	}
	if got.Transcript != ref.Transcript {
		return got, withFlight(fail("response transcripts diverge:\n--- reference ---\n%s--- chaos ---\n%s",
			ref.Transcript, got.Transcript), got.Flight)
	}
	if got.StateDigest != ref.StateDigest {
		return got, withFlight(fail("committed state diverges:\n--- reference ---\n%s--- chaos ---\n%s",
			ref.StateDigest, got.StateDigest), got.Flight)
	}
	return got, nil
}

// withFlight appends the chaos run's flight-recorder dump to a failure:
// the report then carries the cluster timeline (crashes, reboots, epoch
// advances, fences, replay decisions) next to the seed and plan that
// reproduce it.
func withFlight(err error, flight string) error {
	if flight == "" {
		return err
	}
	return fmt.Errorf("%w\n%s", err, flight)
}

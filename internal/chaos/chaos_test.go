package chaos_test

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/chaos/oracle"
	"statefulentities.dev/stateflow/internal/sim"
)

var backends = []stateflow.Backend{stateflow.BackendStateFlow, stateflow.BackendStateFun}

// sweepSeeds returns the per-combo seed count: the full sweep by default,
// a small one under -short (CI's dedicated chaos job), or an explicit
// override via CHAOS_SWEEP_SEEDS (the nightly workflow runs 100).
func sweepSeeds() int64 {
	if s := os.Getenv("CHAOS_SWEEP_SEEDS"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 5
	}
	return 20
}

// sweepShards returns the StateFlow shard count the sweeps deploy: the
// classic single-coordinator topology by default, or the CHAOS_SHARDS
// override (the CI matrix runs 1, 2 and 4). Other backends ignore it.
func sweepShards() int {
	if s := os.Getenv("CHAOS_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// sweepTraced reports whether the sweeps attach a transaction tracer to
// every run (CHAOS_TRACE=1). Tracing is deterministically inert, so the
// traced sweep must pass byte-for-byte like the untraced one — CI runs a
// short traced sweep as the inertness pin.
func sweepTraced() bool {
	t := os.Getenv("CHAOS_TRACE")
	return t != "" && t != "0"
}

// TestOracleSeedSweep is the acceptance gate: for every workload × backend
// combo it sweeps seeds, each seed deriving a fault plan with crash, drop,
// duplicate and delay faults enabled, and requires every oracle property —
// exactly-once responses, response/state equivalence against the
// fault-free reference, and the workload invariants — to hold. A failure
// prints the workload, backend, seed and the full plan verbatim.
func TestOracleSeedSweep(t *testing.T) { oracleSeedSweep(t, sweepShards(), sweepSeeds()) }

// TestOracleSeedSweepTwoShards is the sharded leg tier-1 always runs, at
// the -short size (~0.3 s): the sequencer, the fences and the global
// applies ride the same kernel and workspaces as everything else, and
// CHAOS_SHARDS=2 once stayed red for five PRs because nothing in
// `go test ./...` set it. The CI matrix still runs the full 2- and
// 4-shard sweeps through TestOracleSeedSweep.
func TestOracleSeedSweepTwoShards(t *testing.T) { oracleSeedSweep(t, 2, 5) }

// knownRetriesFloor is the sharded sweeps' vacuousness floor for admission
// under the fence: the legs of a sweep add every run's
// SequencerStats.KnownRetries to the returned counter, and once all of them
// have finished the sweep fails if it is still zero. Exactly-once on the
// global path is the home shards' verdict on retried ids; a sharded sweep in
// which no retry of an answered global transaction ever reached a fence
// proves nothing about it. The floor is per sweep, not per leg: at -short's 5
// seeds a single workload legitimately sees none.
func knownRetriesFloor(t *testing.T, shards int) *atomic.Int64 {
	n := new(atomic.Int64)
	if shards > 1 {
		t.Cleanup(func() {
			t.Logf("%d answered global retries dropped under the fence", n.Load())
			if n.Load() == 0 && !t.Failed() {
				t.Errorf("no retry of an answered global transaction reached a fence (shards=%d); admission under the fence went unexercised", shards)
			}
		})
	}
	return n
}

func oracleSeedSweep(t *testing.T, shards int, seeds int64) {
	cfg := oracle.DefaultConfig()
	cfg.Shards = shards
	cfg.Traced = sweepTraced()
	knownRetries := knownRetriesFloor(t, shards)
	for _, w := range oracle.Workloads() {
		w := w
		for _, backend := range backends {
			backend := backend
			t.Run(fmt.Sprintf("%s/%s", w.Name, backend), func(t *testing.T) {
				t.Parallel()
				recoveries, restarts, replays, crashWindows, drops, delays := 0, 0, 0, 0, 0, 0
				clientDrops, midPipeline, midPipelineSeeds, fastReads := 0, 0, 0, 0
				for seed := int64(1); seed <= seeds; seed++ {
					run, err := oracle.Verify(w, backend, seed, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Every generated plan carries a coordinator crash
					// window; on the transactional backend each seed must
					// therefore survive at least one coordinator reboot
					// from the durable log (not merely schedule it).
					if backend == stateflow.BackendStateFlow {
						if run.CoordRestarts == 0 {
							t.Fatalf("seed %d: no coordinator restart exercised (recoveries=%d, %d crash windows)",
								seed, run.Recoveries, run.Stats.CrashWindows)
						}
						if run.Recoveries == 0 {
							t.Fatalf("seed %d: no recovery exercised", seed)
						}
					}
					recoveries += run.Recoveries
					restarts += run.CoordRestarts
					midPipeline += run.MidPipelineRestarts
					if run.MidPipelineRestarts > 0 {
						midPipelineSeeds++
					}
					replays += run.Replays
					fastReads += run.FastReads
					knownRetries.Add(int64(run.Sequencer.KnownRetries))
					crashWindows += run.Stats.CrashWindows
					drops += run.Stats.Dropped
					delays += run.Stats.Delayed
					for _, n := range run.Stats.DroppedResponses {
						clientDrops += n
					}
				}
				t.Logf("%d crash windows, %d drops (%d client-edge response drops), %d delays, %d recoveries (%d coordinator reboots, %d mid-pipeline, %d egress replays) survived, %d fast reads",
					crashWindows, drops, clientDrops, delays, recoveries, restarts, midPipeline, replays, fastReads)
				// A workload that issues read-only calls must have had some
				// answered on StateFlow's fast-read path, at every shard
				// count, or the sweep judges reads only through the epochs
				// they no longer take.
				if backend == stateflow.BackendStateFlow && issuesReads(w) && fastReads == 0 {
					t.Fatal("no read of this leg took the fast-read path")
				}
				if seeds < 20 {
					// The vacuousness floors below are calibrated for the
					// full sweep: at -short's 5 seeds some workload/backend
					// combos legitimately see no client-edge response drop,
					// so gating there would fail on calibration, not on a
					// regression. The full sweep (default test job) and the
					// nightly 100-seed sweep keep the floors.
					return
				}
				if delays == 0 {
					t.Fatal("sweep never delayed a message")
				}
				// The un-clamped client edge must actually lose responses
				// somewhere in the sweep — and the egress replay must have
				// healed some of them — or the drop-safety claim is vacuous.
				// The floors are calibrated for the classic topology: a
				// sharded sweep splits the same load across shards, so
				// per-shard overlap (and with it mid-pipeline reboots)
				// thins out legitimately; its dedicated gates live in
				// the sharded tests.
				if backend == stateflow.BackendStateFlow && shards <= 1 {
					if clientDrops == 0 {
						t.Fatal("sweep never dropped a client-bound response")
					}
					if replays == 0 {
						t.Fatal("sweep never re-served a response from the egress buffer")
					}
					// The pipelined-recovery floor: a large share of the
					// sweep's reboots must land with two epochs in flight
					// (a per-seed demand would be wrong — a lightly loaded
					// workload legitimately has no overlap open when the
					// window fires — but a sweep where most seeds never
					// interrupt the overlap is not testing the pipelined
					// restart path).
					if 3*midPipelineSeeds < int(seeds) {
						t.Fatalf("only %d/%d seeds rebooted with two epochs in flight (%d mid-pipeline reboots total)",
							midPipelineSeeds, seeds, midPipeline)
					}
				}
			})
		}
	}
}

// issuesReads reports whether a workload's ops include read-only calls.
func issuesReads(w oracle.Workload) bool {
	for _, op := range w.Ops(1) {
		if op.Kind == "read" {
			return true
		}
	}
	return false
}

// intensePlan is a hand-built plan aggressive enough that every fault
// class fires in a single run — used to prove the sweep is not vacuous
// and that clamping tracks each backend's failure contract.
func intensePlan(horizon time.Duration) chaos.Plan {
	return chaos.Plan{
		Name:    "intense",
		Horizon: horizon,
		Crashes: []chaos.Crash{{
			Role: "worker", Victims: 2, At: horizon / 4,
			Downtime: 20 * time.Millisecond, Every: 80 * time.Millisecond, Count: 2,
		}},
		Perturbs: []chaos.Perturbation{{
			Edge:     chaos.Edge{From: "*", To: "*"},
			DropP:    0.02,
			DupP:     0.05,
			DupDelay: sim.Latency{Jitter: 2 * time.Millisecond},
			DelayP:   0.2,
			Delay:    sim.Latency{Base: time.Millisecond, Jitter: 4 * time.Millisecond},
		}},
	}
}

// TestSweepIsNotVacuous runs one high-intensity chaos run per backend and
// requires that the faults the oracle survives elsewhere actually happen:
// crash windows, drops, duplicates and delays on the transactional
// backend; delays and response duplicates — with crash and drop attempts
// clamped — on the baseline, whose contract covers neither.
func TestSweepIsNotVacuous(t *testing.T) {
	cfg := oracle.DefaultConfig()
	w := oracle.Banking()
	recoveries := 0
	run := func(backend stateflow.Backend) chaos.Stats {
		plan := intensePlan(cfg.Horizon)
		r, err := oracle.RunOnce(w, backend, 1, &plan, cfg)
		if err != nil {
			t.Fatalf("backend=%s plan=%s: %v", backend, plan, err)
		}
		recoveries = r.Recoveries
		return r.Stats
	}
	sf := run(stateflow.BackendStateFlow)
	if sf.CrashWindows == 0 || sf.Dropped == 0 || sf.Duplicated == 0 || sf.Delayed == 0 {
		t.Fatalf("stateflow run saw no real faults: %+v", sf)
	}
	if recoveries == 0 {
		t.Fatalf("intense plan never triggered a recovery: %+v", sf)
	}
	if len(sf.Clamped) != 0 {
		t.Fatalf("stateflow clamped crash specs unexpectedly: %v", sf.Clamped)
	}
	fun := run(stateflow.BackendStateFun)
	if fun.Delayed == 0 {
		t.Fatalf("statefun run saw no delays: %+v", fun)
	}
	if fun.CrashWindows != 0 || fun.Dropped != 0 {
		t.Fatalf("statefun applied faults outside its contract: %+v", fun)
	}
	if len(fun.Clamped) == 0 || fun.ClampedDrops == 0 {
		t.Fatalf("statefun should have clamped crash and drop faults: %+v", fun)
	}
	t.Logf("stateflow fault activity: %d crash windows, %d drops, %d dups, %d delays",
		sf.CrashWindows, sf.Dropped, sf.Duplicated, sf.Delayed)
	t.Logf("statefun fault activity: %d delays, %d dups (%d crash/drop specs clamped, %d drops clamped)",
		fun.Delayed, fun.Duplicated, len(fun.Clamped), fun.ClampedDrops)
}

// TestChaosRunDeterminism is the RNG-plumbing regression guard: the same
// (workload, seed, plan) run twice must be byte-identical down to the
// fault-sensitive observables (per-op latencies and retry counts, raw
// delivery counts, final virtual time) on both backends — and a
// different seed must diverge.
func TestChaosRunDeterminism(t *testing.T) {
	cfg := oracle.DefaultConfig()
	w := oracle.Banking()
	for _, backend := range backends {
		plan := chaos.FromSeed(7, cfg.Horizon)
		a, err := oracle.RunOnce(w, backend, 7, &plan, cfg)
		if err != nil {
			t.Fatalf("%s run A: %v", backend, err)
		}
		b, err := oracle.RunOnce(w, backend, 7, &plan, cfg)
		if err != nil {
			t.Fatalf("%s run B: %v", backend, err)
		}
		if a.Transcript != b.Transcript {
			t.Fatalf("%s: transcripts of identical runs diverge:\n--- A ---\n%s--- B ---\n%s",
				backend, a.Transcript, b.Transcript)
		}
		if a.StateDigest != b.StateDigest {
			t.Fatalf("%s: state digests of identical runs diverge", backend)
		}
		if a.Trace != b.Trace {
			t.Fatalf("%s: traces of identical runs diverge:\n--- A ---\n%s--- B ---\n%s",
				backend, a.Trace, b.Trace)
		}
		if as, bs := a.Stats, b.Stats; as.CrashWindows != bs.CrashWindows ||
			as.Dropped != bs.Dropped || as.Duplicated != bs.Duplicated || as.Delayed != bs.Delayed {
			t.Fatalf("%s: chaos stats diverge: %+v vs %+v", backend, as, bs)
		}

		plan8 := chaos.FromSeed(8, cfg.Horizon)
		c, err := oracle.RunOnce(w, backend, 8, &plan8, cfg)
		if err != nil {
			t.Fatalf("%s run seed 8: %v", backend, err)
		}
		if c.Trace == a.Trace {
			t.Fatalf("%s: different seeds produced identical traces (seed not plumbed through)", backend)
		}
	}
}

// TestFromSeedDeterministic: the plan compiler is a pure function of its
// seed.
func TestFromSeedDeterministic(t *testing.T) {
	a := chaos.FromSeed(42, 300*time.Millisecond)
	b := chaos.FromSeed(42, 300*time.Millisecond)
	if a.String() != b.String() {
		t.Fatalf("plans from the same seed differ:\n%s\n%s", a, b)
	}
	c := chaos.FromSeed(43, 300*time.Millisecond)
	if c.String() == a.String() {
		t.Fatal("plans from different seeds identical")
	}
	if len(a.Crashes) == 0 || len(a.Perturbs) == 0 {
		t.Fatalf("generated plan is empty: %s", a)
	}
	for _, cr := range a.Crashes {
		if cr.At+cr.Downtime > a.Horizon {
			t.Fatalf("crash window exceeds the horizon: %s", a)
		}
	}
	// Degenerate horizons must not panic the generator: they are raised
	// to the minimum bounded window, and even then every crash window
	// stays inside the horizon.
	for _, h := range []time.Duration{0, time.Millisecond, -time.Second} {
		for seed := int64(1); seed <= 50; seed++ {
			p := chaos.FromSeed(seed, h)
			if p.Horizon < 100*time.Millisecond {
				t.Fatalf("horizon %s not raised: %s", h, p)
			}
			for _, cr := range p.Crashes {
				if cr.At+cr.Downtime > p.Horizon {
					t.Fatalf("seed %d: crash window exceeds raised horizon: %s", seed, p)
				}
			}
		}
	}
}

// TestPublicChaosAPI drives WithChaos through the public Simulation
// surface end to end and checks the stats accessor.
func TestPublicChaosAPI(t *testing.T) {
	w := oracle.Banking()
	prog := stateflow.MustCompile(w.Source)
	plan := stateflow.ChaosPlanFromSeed(3, 200*time.Millisecond)
	sim := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFlow, SnapshotEvery: 2, Seed: 3,
	}, stateflow.WithChaos(plan))
	admin := sim.Client().Admin()
	if err := w.Preload(admin); err != nil {
		t.Fatalf("preload: %v", err)
	}
	for i, op := range w.Ops(3)[:12] {
		res, err := sim.Client().Entity(op.Class, op.Key).Call(op.Method, op.Args...)
		if err != nil || res.Err != "" {
			t.Fatalf("op %d under chaos: err=%v res.Err=%q", i, err, res.Err)
		}
	}
	sim.Run(time.Second) // let any scheduled windows and retries settle
	st := sim.ChaosStats()
	if st.CrashWindows == 0 {
		t.Fatalf("no crash windows scheduled: %+v", st)
	}
	// Exactly-once accounting under client-edge faults: the system's own
	// sends per id (deliveries − injected dups + injected drops) are one
	// plus at most one replay per solicitation (retries + request dups).
	retries := sim.ClientRetries()
	for id, n := range sim.ResponseDeliveries() {
		sends := n - st.DupResponses[id] + st.DroppedResponses[id]
		if allowed := 1 + retries[id] + st.DupRequests[id]; sends < 1 || sends > allowed {
			t.Fatalf("request %s: system sent %d responses, allowed 1..%d (deliveries %d)",
				id, sends, allowed, n)
		}
	}
}

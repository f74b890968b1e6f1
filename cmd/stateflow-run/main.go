// Command stateflow-run compiles the built-in YCSB entity program (or a
// user-supplied .sf file) and executes a YCSB-style workload against it on
// a chosen runtime, printing latency and outcome stats. It is the quickest
// way to see one program execute unchanged on every runtime (§3: "the
// choice of a runtime system is completely independent of the application
// layer"): the local and live paths share one workload driver written
// against the stateflow.Client interface, and the simulated paths share
// one open-loop generator.
//
// Usage:
//
//	stateflow-run -backend local|live|stateflow|statefun \
//	              -workload A|B|T|M -dist zipfian|uniform \
//	              -rate 100 -duration 30s [-chaos-seed N] [program.sf]
//
// With -chaos-seed, the simulated backends run under a deterministic
// fault plan derived from the seed (worker crash windows, message drops,
// duplicates and latency spikes); the plan and the fault activity are
// printed so any run reproduces from its two seeds.
//
// With -lin <hotkey|datadep|chain|xshard>, the YCSB driver is bypassed
// entirely: the named adversarial profile runs on the chosen simulated
// backend, fault-free and under the seed-derived chaos plan, and both
// histories go to the serializability checker (internal/lin) instead of
// the byte-equality oracle. This is the one-command reproduction for
// adversarial sweep failures:
//
//	stateflow-run -lin datadep -seed 33 [-backend statefun]
//	              [-no-fallback] [-no-pipelining] [-shards N]
//
// With -shards N (N > 1), the StateFlow backend deploys as N sharded
// coordinator groups behind a global sequencer; -shards 1 is the classic
// single-coordinator topology, byte-identical to omitting the flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/bench"
	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/chaos/oracle"
	adversarial "statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/obs"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

func main() {
	backend := flag.String("backend", "stateflow", "runtime: local | live | stateflow | statefun")
	workload := flag.String("workload", "A", "YCSB workload: A | B | T | M")
	dist := flag.String("dist", "zipfian", "key distribution: zipfian | uniform")
	rate := flag.Float64("rate", 100, "request rate (requests/second)")
	duration := flag.Duration("duration", 30*time.Second, "run length (virtual time)")
	records := flag.Int("records", 1000, "dataset size")
	seed := flag.Int64("seed", 1, "seed")
	chaosSeed := flag.Int64("chaos-seed", 0, "run the simulated backends under a seeded fault plan (0: off)")
	maxBatch := flag.Int("max-batch", sfsys.DefaultConfig().MaxBatch,
		"StateFlow batch-size cap: backlogs and post-recovery replays drain chunked over batches of at most this many transactions (0: unbounded)")
	noFallback := flag.Bool("no-fallback", false,
		"disable Aria's deterministic fallback phase: conflict-aborted transactions retry in the next batch instead of re-executing inside the current one (A/B benchmarking)")
	noPipelining := flag.Bool("no-pipelining", false,
		"force the serial epoch schedule: the coordinator fully commits each epoch before opening the next instead of overlapping execute and commit phases (A/B benchmarking)")
	linProfile := flag.String("lin", "",
		"run an adversarial order-sensitive workload under the linearizability checker instead of YCSB: hotkey | datadep | chain | xshard. The workload, the fault plan and the verdict all derive from -seed; honors -backend (stateflow or statefun), -no-fallback, -no-pipelining and -shards")
	shards := flag.Int("shards", 1,
		"deploy the StateFlow backend as this many sharded coordinator groups behind a global sequencer (1: the classic single-coordinator topology)")
	tracePath := flag.String("trace", "",
		"write the run's transaction phase spans to this file as Chrome trace-event JSON (open in Perfetto or chrome://tracing; simulated stateflow backend only)")
	flag.Parse()

	if *linProfile != "" {
		runLin(*linProfile, *backend, *seed, *noFallback, *noPipelining, *shards)
		return
	}

	src := ycsb.Program()
	if flag.NArg() == 1 {
		b, err := os.ReadFile(flag.Arg(0))
		check(err)
		src = string(b)
	}
	prog, err := stateflow.Compile(src)
	check(err)

	mix, err := ycsb.ByName(*workload)
	check(err)
	chooser, err := ycsb.ChooserByName(*dist, *records)
	check(err)
	wgen := ycsb.NewGenerator(mix, chooser, *records, *seed+17, "q")

	if *chaosSeed != 0 && *backend != "stateflow" && *backend != "statefun" {
		check(fmt.Errorf("-chaos-seed needs a simulated backend (stateflow or statefun)"))
	}
	switch *backend {
	case "local":
		// The Local runtime is synchronous and single-threaded: one client.
		runClient("local runtime", stateflow.NewLocalClient(prog), 1, wgen, *records, *rate, *duration)
	case "live":
		runClient("live runtime (8 workers)", stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 8}),
			16, wgen, *records, *rate, *duration)
	case "stateflow", "statefun":
		var tracer *obs.Tracer
		if *tracePath != "" {
			if *backend != "stateflow" {
				check(fmt.Errorf("-trace needs the stateflow backend (tracing instruments the transactional protocol), got %q", *backend))
			}
			tracer = obs.NewTracer()
		}
		h, err := bench.Deploy(bench.Deployment{Seed: *seed, System: *backend, Program: prog, Config: func(cfg *sfsys.Config) {
			cfg.MaxBatch = *maxBatch
			cfg.DisableFallback = *noFallback
			cfg.DisablePipelining = *noPipelining
			cfg.Tracer = tracer
			if *chaosSeed != 0 {
				cfg.SnapshotEvery = 20 // give recovery real snapshots to roll back to
			}
			cfg.Shards = *shards
		}})
		check(err)
		check(h.Preload(*records, ycsb.Loader(*records, 1000)))
		runSim(h, *backend, wgen, *rate, *duration, *chaosSeed)
		if tracer != nil {
			f, err := os.Create(*tracePath)
			check(err)
			check(tracer.WriteJSON(f))
			check(f.Close())
			fmt.Printf("trace: %d events written to %s (open in Perfetto or chrome://tracing)\n", tracer.Len(), *tracePath)
		}
	default:
		fmt.Fprintf(os.Stderr, "stateflow-run: unknown backend %q\n", *backend)
		os.Exit(2)
	}
}

// runClient executes the request stream through the portable Client
// interface — the same driver serves the synchronous Local runtime (one
// client goroutine) and the concurrent live runtime (many). Latencies are
// real wall-clock times.
func runClient(label string, c stateflow.Client, clients int, wgen *ycsb.Generator, records int, rate float64, duration time.Duration) {
	defer func() { check(c.Close()) }()
	admin := c.Admin()
	load := ycsb.Loader(records, 1000)
	for i := 0; i < records; i++ {
		class, args := load(i)
		check(admin.Preload(class, args...))
	}
	total := int(rate * duration.Seconds())
	var mu sync.Mutex
	lat := obs.NewBoundedHistogram(sysapi.LatencyReservoir)
	errs := 0
	var wg sync.WaitGroup
	start := time.Now()
	per := (total + clients - 1) / clients
	for cl := 0; cl < clients; cl++ {
		lo, hi := cl*per, min((cl+1)*per, total)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				req := reqSafe(wgen, i, &mu)
				t0 := time.Now()
				res, err := c.Entity(req.Target.Class, req.Target.Key).
					With(stateflow.WithKind(req.Kind)).
					Call(req.Method, req.Args...)
				d := time.Since(t0)
				mu.Lock()
				lat.Observe(d)
				if err != nil || res.Err != "" {
					errs++
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	fmt.Printf("%s, %d clients: %d requests in %s (errors: %d)\n",
		label, clients, total, time.Since(start).Round(time.Millisecond), errs)
	fmt.Printf("per-call latency: %s\n", lat.Snapshot())
}

// reqSafe serializes generator access across client goroutines.
func reqSafe(wgen *ycsb.Generator, i int, mu *sync.Mutex) sysapi.Request {
	mu.Lock()
	defer mu.Unlock()
	return wgen.Next(i)
}

// runSim drives the deployed, preloaded backend with an open-loop
// generator (arrivals do not wait for responses), optionally under a
// seeded fault plan, and prints what the clients and the runtime counted.
func runSim(h *bench.Harness, backend string, wgen *ycsb.Generator, rate float64, duration time.Duration, chaosSeed int64) {
	var eng *chaos.Engine
	if chaosSeed != 0 {
		plan := chaos.FromSeed(chaosSeed, duration)
		fmt.Printf("chaos: %s\n", plan)
		eng = chaos.Install(h.Cluster, h.Backend.ChaosTopology(), plan)
	}
	gen := h.Generate(rate, duration, duration/10, wgen.Next)
	if chaosSeed != 0 {
		// Under client-edge faults (drops, ingress downtime) the open-loop
		// clients must retransmit or lost requests stay lost.
		gen.RetryEvery = 50 * time.Millisecond
	}
	start := time.Now()
	h.Run(duration + 10*time.Second)
	fmt.Printf("%s: %d submitted, %d completed, %d errors over %s virtual time (%s real)\n",
		backend, gen.Submitted, gen.Done, gen.Errors, duration, time.Since(start).Round(time.Millisecond))
	fmt.Printf("end-to-end latency: %s\n", gen.Latency.Snapshot())
	for kind, s := range gen.PerKind {
		fmt.Printf("  %-9s %s\n", kind+":", s.Snapshot())
	}
	if h.SF != nil {
		printStateFlow(h.SF)
	}
	if eng != nil {
		st := eng.Stats()
		fmt.Printf("chaos activity: %d crash windows, %d dropped, %d duplicated, %d delayed (clamped: %d drops, %d dups); %d client retries\n",
			st.CrashWindows, st.Dropped, st.Duplicated, st.Delayed, st.ClampedDrops, st.ClampedDups, gen.Retried())
		for _, cl := range st.Clamped {
			fmt.Printf("  clamped: %s\n", cl)
		}
	}
}

// printStateFlow prints the runtime's own counters: one block for the
// classic topology, the routing split plus a block per shard behind a
// sequencer.
func printStateFlow(sf *sfsys.ShardedSystem) {
	q := sf.Sequencer()
	if q == nil {
		sh := sf.Shards()[0]
		c, ls := sh.Coordinator(), sh.Dlog.Stats()
		fmt.Printf("transactions: %d committed, %d aborted (retried), %d failed, %d epochs, %d recoveries (%d coordinator reboots, %d egress replays)\n",
			c.Commits, c.Aborts, c.Failures, c.EpochsClosed, c.Recoveries, c.Restarts, c.Replays)
		fmt.Printf("fallback phase: %d rounds (%d epochs chained), %d rescued commits\n",
			c.FallbackRounds, c.FallbackChains, c.FallbackCommits)
		fmt.Printf("durable log: %d appends (%d B), %d syncs, %d checkpoints (%d records compacted), %d torn tails discarded\n",
			ls.Appends, ls.AppendedBytes, ls.Syncs, ls.Checkpoints, ls.Compacted, ls.TornTails)
		return
	}
	fmt.Printf("sharded routing: %d single-shard forwards, %d global transactions in %d batches\n",
		q.SingleShard, q.GlobalTxns, q.GlobalBatches)
	for i, sh := range sf.Shards() {
		c, ls := sh.Coordinator(), sh.Dlog.Stats()
		fmt.Printf("  shard %d: %d committed, %d aborted, %d epochs, %d recoveries (%d reboots), %d fences, %d applies\n",
			i, c.Commits, c.Aborts, c.EpochsClosed, c.Recoveries, c.Restarts, c.GlobalFences, c.GlobalApplies)
		fmt.Printf("    durable log: %d appends, %d syncs, %d checkpoints, %d torn tails discarded\n",
			ls.Appends, ls.Syncs, ls.Checkpoints, ls.TornTails)
	}
}

// runLin executes one adversarial profile under the history checker:
// fault-free first, then under the seed's chaos plan, requiring both
// observed histories to be serializable and value-conserving (and, on
// StateFlow, at least one coordinator reboot survived). Everything —
// traffic, fault plan, verdict — reproduces from the profile name and
// the seed.
func runLin(profile, backend string, seed int64, noFallback, noPipelining bool, shards int) {
	var be stateflow.Backend
	switch backend {
	case "stateflow":
		be = stateflow.BackendStateFlow
	case "statefun":
		be = stateflow.BackendStateFun
	default:
		check(fmt.Errorf("-lin needs a simulated backend (stateflow or statefun), got %q", backend))
	}
	p, err := adversarial.ByName(profile)
	check(err)
	cfg := oracle.DefaultConfig()
	cfg.DisableFallback = noFallback
	cfg.DisablePipelining = noPipelining
	cfg.Shards = shards
	run, err := oracle.VerifyAdversarial(p, be, seed, cfg)
	check(err)
	fmt.Printf("profile %s on %s, seed %d: histories serializable and conserving, fault-free and under plan %s\n",
		p, be, seed, chaos.FromSeed(seed, cfg.Horizon))
	fmt.Printf("chaos activity: %d crash windows, %d dropped, %d duplicated, %d delayed\n",
		run.Stats.CrashWindows, run.Stats.Dropped, run.Stats.Duplicated, run.Stats.Delayed)
	if be == stateflow.BackendStateFlow {
		fmt.Printf("stateflow: %d recoveries (%d coordinator reboots, %d mid-pipeline), %d egress replays, %d fallback chains, %d fallback drift demotions, %d fast reads\n",
			run.Recoveries, run.CoordRestarts, run.MidPipelineRestarts, run.Replays, run.FallbackChains, run.FallbackDriftDemotions, run.FastReads)
	}
	if shards > 1 {
		fmt.Printf("sharded (%d shards): %d transactions sequenced globally in %d batches (%d scoped / %d full fences); %d sequencer failovers (%d batches rolled forward, %d abandoned pre-apply)\n",
			shards, run.Sequencer.GlobalTxns, run.Sequencer.GlobalBatches,
			run.Sequencer.ScopedFences, run.Sequencer.FullFences,
			run.Sequencer.Failovers, run.Sequencer.RederivedBatches, run.Sequencer.AbortedBatches)
		if !run.MidFenceAimed {
			fmt.Println("targeted mid-fence sequencer crash skipped: every observed fence window opens past the plan horizon")
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stateflow-run:", err)
		os.Exit(1)
	}
}

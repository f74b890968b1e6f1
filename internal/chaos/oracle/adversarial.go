// Adversarial runs: order-sensitive workloads checked by the history
// checker (internal/lin) instead of byte-equality against a reference
// run. The catalogue workloads in workloads.go are built to be
// order-insensitive so transcripts compare bytewise; the adversarial
// profiles (internal/chaos/workload) are built to be the opposite —
// contended, data-dependent, chained — and their correctness argument is
// serializability of the observed history, which is exactly what
// lin.Check decides.
package oracle

import (
	"fmt"
	"strings"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/lin"
)

// adversarialWindow is the in-flight window for the static profiles on
// the transactional backend. Contention is the point, so the window is
// wide; the non-transactional baseline gets window 1 (same reasoning as
// Workload.Contended — its contract makes no isolation promise).
const adversarialWindow = 8

// RunAdversarial executes one adversarial workload spec on a backend —
// fault-free when plan is nil, under the plan otherwise — and returns
// the checker-ready history plus the run observables. On the StateFlow
// backend the history carries the coordinator's commit tap (serial
// mode); on the baseline the checker falls back to graph mode.
//
// The caller owns the verdict: pass the history to lin.Check (with
// spec.Conservation()) — VerifyAdversarial does exactly that.
func RunAdversarial(spec workload.Spec, backend stateflow.Backend, seed int64, plan *chaos.Plan, cfg Config) (*lin.History, Run, error) {
	prog, err := stateflow.Compile(workload.Program())
	if err != nil {
		return nil, Run{}, fmt.Errorf("compile workload program: %w", err)
	}
	simCfg := stateflow.SimConfig{
		Backend:           backend,
		Seed:              seed,
		Epoch:             cfg.Epoch,
		SnapshotEvery:     cfg.SnapshotEvery,
		DisableFallback:   cfg.DisableFallback,
		DisablePipelining: cfg.DisablePipelining,
		// The commit tap is the serial order the checker validates
		// against — it exists only on the single-coordinator topology;
		// sharded deployments have no one coordinator whose tap is the
		// whole serial order, so the checker falls back to graph mode.
		TraceCommits: backend == stateflow.BackendStateFlow && cfg.Shards <= 1,
		Shards:       cfg.Shards,
		FullFences:   cfg.FullFences,
	}
	if cfg.Traced {
		simCfg.Tracer = stateflow.NewTracer()
	}
	opts := []stateflow.SimOption{stateflow.WithReinjectedBugs(cfg.Reinject)}
	if plan != nil {
		opts = append(opts, stateflow.WithChaos(*plan))
	}
	sim := stateflow.NewSimulation(prog, simCfg, opts...)
	client := sim.Client()
	admin := client.Admin()
	if err := spec.Preload(admin); err != nil {
		return nil, Run{}, fmt.Errorf("%s preload: %w", spec.Profile, err)
	}

	h := &lin.History{Initial: spec.Initial()}
	reqOf := map[string]string{} // wire request id -> workload op id
	lost := 0
	var trace strings.Builder

	submit := func(op workload.Op) *stateflow.Future {
		kind := "update"
		if op.Method == "get" {
			kind = "read"
		}
		h.Invokes = append(h.Invokes, op.Invoke())
		f := client.Entity(workload.Class, op.Key).
			With(stateflow.WithKind(kind), stateflow.WithTimeout(cfg.Timeout)).
			Submit(op.Method, op.Args()...)
		if id := f.RequestID(); id != "" {
			reqOf[id] = op.ID
		}
		return f
	}
	// settle waits for a future and folds its outcome into the history.
	// ok=false means the request was lost (no response within the virtual
	// timeout) — the history has no outcome for it and the run fails
	// below, because an op with unknown effects makes the check vacuous.
	settle := func(op workload.Op, f *stateflow.Future) (obs []lin.Observation, failed, ok bool) {
		res, err := f.Wait()
		if err != nil {
			lost++
			fmt.Fprintf(&trace, "LOST %s %s<%s>.%s: %v\n", op.ID, workload.Class, op.Key, op.Method, err)
			return nil, true, false
		}
		out := lin.Outcome{ID: op.ID, Err: res.Err}
		if res.Err == "" {
			decoded, derr := workload.Decode(op, res.Value)
			if derr != nil {
				// A malformed response is a checker violation in its own
				// right: record the op as errored so checkChain sees an
				// effect-free op, and surface the decode failure.
				fmt.Fprintf(&trace, "DECODE %s: %v\n", op.ID, derr)
				out.Err = derr.Error()
			} else {
				out.Obs = decoded
			}
		}
		h.Outcomes = append(h.Outcomes, out)
		return out.Obs, out.Err != "", true
	}

	switch spec.Profile {
	case workload.Chain:
		// Response-driven chains: each chain has at most one op in flight,
		// and the next op's target and arguments derive from the previous
		// response. On the transactional backend the chains race each
		// other; the baseline drives them one chain at a time (its
		// contract makes no promise about interleaved multi-entity ops).
		type pending struct {
			op  workload.Op
			fut *stateflow.Future
		}
		drive := func(active []pending) {
			for len(active) > 0 {
				next := make([]pending, 0, len(active))
				for _, p := range active {
					obs, failed, ok := settle(p.op, p.fut)
					if !ok {
						continue // lost: abandon the chain, fail the run below
					}
					nop, more := spec.Next(p.op, obs, failed)
					if more {
						next = append(next, pending{op: nop, fut: submit(nop)})
					}
				}
				active = next
			}
		}
		starts := spec.Starts()
		if backend == stateflow.BackendStateFlow {
			all := make([]pending, 0, len(starts))
			for _, op := range starts {
				all = append(all, pending{op: op, fut: submit(op)})
			}
			drive(all)
		} else {
			for _, op := range starts {
				drive([]pending{{op: op, fut: submit(op)}})
			}
		}
	default:
		ops := spec.Static()
		window := adversarialWindow
		if backend != stateflow.BackendStateFlow {
			window = 1
		}
		for base := 0; base < len(ops); base += window {
			end := base + window
			if end > len(ops) {
				end = len(ops)
			}
			futs := make([]*stateflow.Future, 0, end-base)
			for _, op := range ops[base:end] {
				futs = append(futs, submit(op))
			}
			for i, f := range futs {
				settle(ops[base+i], f)
			}
		}
	}
	if lost > 0 {
		return nil, Run{Flight: sim.FlightRecorder().Dump()}, fmt.Errorf("%s on %s: %d/%d requests lost (no response within %s of virtual time):\n%s",
			spec.Profile, backend, lost, len(h.Invokes), cfg.Timeout, trace.String())
	}

	// Quiesce before reading taps and final state: delayed duplicates must
	// land and any crash window scheduled past the last response must
	// open, be detected and finish recovering (recovery replay re-commits
	// work the clients already saw; the tap must record the converged
	// apply order, not a replay in progress).
	quiet := cfg.Horizon - sim.Cluster.Now()
	if quiet < 0 {
		quiet = 0
	}
	sim.Run(quiet + time.Second)

	// Exactly-once at the client edge — same accounting as RunOnce: per
	// id, the system's own sends (deliveries − injected dups + injected
	// drops) must be at least one and at most one plus the solicitations
	// for a resend (client retries + injected request duplicates).
	deliveries := sim.ResponseDeliveries()
	if len(deliveries) != len(h.Invokes) {
		return nil, Run{Flight: sim.FlightRecorder().Dump()}, fmt.Errorf("%s on %s: %d raw-delivery records for %d ops",
			spec.Profile, backend, len(deliveries), len(h.Invokes))
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
			fmt.Fprintf(&trace, "DUPLICATE %s: system sent %d responses, allowed %d\n", id, sends, allowed)
		}
	}
	if bad > 0 {
		return nil, Run{Flight: sim.FlightRecorder().Dump()}, fmt.Errorf("%s on %s: %d requests violate the exactly-once delivery accounting:\n%s",
			spec.Profile, backend, bad, trace.String())
	}

	// Backend taps: the commit order (serial mode) and the settled state.
	if serials := sim.CommitSerials(); serials != nil {
		h.Serial = make(map[string]int64, len(reqOf))
		for req, ser := range serials {
			if opID, ok := reqOf[req]; ok {
				h.Serial[opID] = ser
			}
		}
	}
	h.Final = make(map[lin.Entity]lin.State, spec.Cells)
	for i := 0; i < spec.Cells; i++ {
		key := workload.Key(i)
		st, ok := admin.Inspect(workload.Class, key)
		if !ok {
			return nil, Run{}, fmt.Errorf("%s on %s: preloaded cell %s missing from committed state",
				spec.Profile, backend, key)
		}
		h.Final[lin.Entity{Class: workload.Class, Key: key}] = lin.State{
			Version: st["version"].I, Value: st["value"].I, Last: st["last"].S,
		}
	}

	run := Run{Stats: stats, Trace: trace.String(), Flight: sim.FlightRecorder().Dump()}
	if sf := sim.StateFlow(); sf != nil {
		run.Recoveries = sf.Coordinator().Recoveries
		run.CoordRestarts = sf.Coordinator().Restarts
		run.MidPipelineRestarts = sf.Coordinator().MidPipelineRestarts
		run.Replays = sf.Coordinator().Replays
		run.FallbackDriftDemotions = sf.Coordinator().FallbackDriftDemotions
		run.FallbackChains = sf.Coordinator().FallbackChains
	} else if sh := sim.Sharded(); sh != nil {
		for _, shard := range sh.Shards() {
			c := shard.Coordinator()
			run.Recoveries += c.Recoveries
			run.CoordRestarts += c.Restarts
			run.MidPipelineRestarts += c.MidPipelineRestarts
			run.Replays += c.Replays
			run.FallbackDriftDemotions += c.FallbackDriftDemotions
			run.FallbackChains += c.FallbackChains
		}
		run.GlobalTxns = sh.Sequencer().GlobalTxns
		run.Sequencer = sh.Sequencer().Stats()
		run.FenceWindows = fenceWindows(sim.FlightRecorder().Events())
	}
	return h, run, nil
}

// VerifyAdversarial derives the spec and fault plan from a (profile,
// seed) pair, runs the workload fault-free and under chaos on one
// backend, and checks both histories for serializability plus the
// profile's conservation invariant. On the StateFlow backend the chaos
// run must additionally have survived at least one coordinator reboot —
// every seeded plan schedules one, and a sweep that silently stopped
// exercising the restart path would otherwise keep passing on easier
// faults. On a sharded deployment a third run aims a sequencer crash into
// a fence window observed under the plan; a seed whose plan leaves no
// window to aim at skips it and reports Run.MidFenceAimed == false. The
// returned error embeds everything needed to reproduce the run from two
// integers.
func VerifyAdversarial(p workload.Profile, backend stateflow.Backend, seed int64, cfg Config) (Run, error) {
	spec := workload.FromSeed(p, seed)
	plan := chaos.FromSeed(seed, cfg.Horizon)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("adversarial profile=%s backend=%s seed=%d plan=%s: %s",
			p, backend, seed, plan, fmt.Sprintf(format, args...))
	}

	h, _, err := RunAdversarial(spec, backend, seed, nil, cfg)
	if err != nil {
		return Run{}, fail("fault-free run failed: %v", err)
	}
	if err := lin.Check(h, spec.Conservation()); err != nil {
		return Run{}, fail("fault-free history rejected: %v", err)
	}
	h, got, err := RunAdversarial(spec, backend, seed, &plan, cfg)
	if err != nil {
		return got, withFlight(fail("chaos run failed: %v", err), got.Flight)
	}
	if err := lin.Check(h, spec.Conservation()); err != nil {
		return got, withFlight(fail("chaos history rejected: %v", err), got.Flight)
	}
	if backend == stateflow.BackendStateFlow && got.CoordRestarts == 0 {
		return got, withFlight(fail("chaos run survived no coordinator reboot (restarts=0); the plan scheduled one, so the restart path went unexercised"), got.Flight)
	}
	if backend == stateflow.BackendStateFlow && cfg.Shards > 1 {
		// On a sharded deployment the coordinator role spans the shard
		// coordinators, so the reboot floor above already demands a
		// single-shard crash survived. Additionally demand that the
		// traffic actually crossed shards: a sweep whose every op stayed
		// shard-local would validate the fast path and nothing else.
		if got.GlobalTxns == 0 {
			return got, withFlight(fail("chaos run routed no transaction through the global sequencer (shards=%d); the cross-shard commit path went unexercised", cfg.Shards), got.Flight)
		}
		// Every seeded plan schedules sequencer crash windows; a sweep
		// that stopped rebooting the sequencer would silently shrink to
		// shard-local fault coverage.
		if got.Sequencer.Failovers == 0 {
			return got, withFlight(fail("chaos run survived no sequencer failover (the plan scheduled crash windows); the recovery handshake went unexercised"), got.Flight)
		}
		if len(got.FenceWindows) == 0 {
			return got, withFlight(fail("chaos run recorded no completed fence window despite %d global txns; cannot target a mid-fence crash", got.GlobalTxns), got.Flight)
		}
		// Third run: the seeded windows land wherever the RNG put them,
		// so additionally aim one sequencer crash at the midpoint of a
		// fence window observed under the plan. The crash is appended
		// last and Pinned, so installing it consumes no cluster RNG and
		// the schedule prefix replays byte-for-byte — the window seen in
		// the second run is guaranteed to be open at that instant in the
		// third, and the reboot lands with a shard provably parked,
		// forcing fence re-derivation and a roll-forward or abandon
		// decision rather than merely permitting one.
		// Candidate windows must open before the horizon: installCrash
		// drops instants past it, so a midpoint beyond the horizon would
		// silently schedule nothing. Windows can also outlive the horizon
		// (the run itself continues until traffic settles), so clip each
		// to it and pick the widest clipped span — the most room for the
		// crash to land with the shard still provably parked.
		var win FenceWindow
		var span time.Duration
		for _, w := range got.FenceWindows {
			to := w.To
			if to > plan.Horizon {
				to = plan.Horizon
			}
			if d := to - w.From; d > span || (d == span && w.From < win.From) {
				win, span = w, d
			}
		}
		if span <= 0 {
			// Every observed window opens past the plan horizon: the seeded
			// plan kept the sequencer down until then, which is a property
			// of the plan, not a defect of the system. There is nothing to
			// aim at, so the seed contributes its first two runs only; the
			// caller owns the floor over MidFenceAimed (per sweep leg, or
			// per seed where a test pins one).
			return got, nil
		}
		targeted := plan
		targeted.Name = plan.Name + "+seq-mid-fence"
		targeted.Crashes = append(append([]chaos.Crash(nil), plan.Crashes...), chaos.Crash{
			Role:     "sequencer",
			Victims:  1,
			At:       win.From + span/2,
			Downtime: 10 * time.Millisecond,
			Count:    1,
			Pinned:   true,
		})
		h, tgt, err := RunAdversarial(spec, backend, seed, &targeted, cfg)
		if err != nil {
			return tgt, withFlight(fail("targeted mid-fence crash run failed: %v", err), tgt.Flight)
		}
		if err := lin.Check(h, spec.Conservation()); err != nil {
			return tgt, withFlight(fail("targeted mid-fence crash history rejected: %v", err), tgt.Flight)
		}
		if tgt.Sequencer.Failovers == 0 {
			return tgt, withFlight(fail("targeted run survived no sequencer failover (crash aimed at %s inside fence window [%s, %s] on %s)",
				win.From+span/2, win.From, win.To, win.Node), tgt.Flight)
		}
		if tgt.Sequencer.RederivedBatches+tgt.Sequencer.AbortedBatches == 0 {
			return tgt, withFlight(fail("targeted mid-fence crash neither rolled a batch forward nor abandoned one (failovers=%d); the crash missed every fenced window",
				tgt.Sequencer.Failovers), tgt.Flight)
		}
		got.MidFenceAimed = true
		got.Sequencer.Failovers += tgt.Sequencer.Failovers
		got.Sequencer.RederivedBatches += tgt.Sequencer.RederivedBatches
		got.Sequencer.AbortedBatches += tgt.Sequencer.AbortedBatches
		got.Sequencer.KnownRetries += tgt.Sequencer.KnownRetries
	}
	return got, nil
}

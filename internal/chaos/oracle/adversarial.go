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
	"slices"
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
// the checker-ready history plus the run observables. On the unsharded
// StateFlow backend the history carries the coordinator's commit tap
// (serial mode); sharded, no one coordinator's tap is the whole serial
// order, and there and on the baseline the checker falls back to graph
// mode.
//
// The caller owns the verdict: pass the history to lin.Check (with
// spec.Conservation()) — VerifyAdversarial does exactly that.
func RunAdversarial(spec workload.Spec, backend stateflow.Backend, seed int64, plan *chaos.Plan, cfg Config) (*lin.History, Run, error) {
	d, err := deploy(script{name: string(spec.Profile), source: workload.Program(), preload: spec.Preload,
		tap: backend == stateflow.BackendStateFlow && cfg.Shards <= 1}, backend, seed, plan, cfg)
	if err != nil {
		return nil, Run{}, err
	}

	h := &lin.History{Initial: spec.Initial()}
	reqOf := map[string]string{} // wire request id -> workload op id
	submit := func(op workload.Op) *stateflow.Future {
		kind := "update"
		if op.Method == "get" {
			kind = "read"
		}
		h.Invokes = append(h.Invokes, op.Invoke())
		f := d.client.Entity(workload.Class, op.Key).
			With(stateflow.WithKind(kind), stateflow.WithTimeout(cfg.Timeout)).
			Submit(op.Method, op.Args()...)
		if id := f.RequestID(); id != "" {
			reqOf[id] = op.ID
		}
		return f
	}
	// settle waits for a future and folds its outcome into the history.
	// ok=false means the request was lost — the history has no outcome for
	// it, and the run fails in finish.
	settle := func(op workload.Op, f *stateflow.Future) (obs []lin.Observation, failed, ok bool) {
		res, err := f.Wait()
		if err != nil {
			d.lose("%s %s<%s>.%s: %v", op.ID, workload.Class, op.Key, op.Method, err)
			return nil, true, false
		}
		out := lin.Outcome{ID: op.ID, Err: res.Err}
		if res.Err == "" {
			decoded, derr := workload.Decode(op, res.Value)
			if derr != nil {
				// A malformed response is a checker violation in its own
				// right: record the op as errored so checkChain sees an
				// effect-free op, and surface the decode failure.
				fmt.Fprintf(&d.trace, "DECODE %s: %v\n", op.ID, derr)
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
						continue // lost: abandon the chain, fail the run in finish
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
		windowed(len(ops), window, func(i int) *stateflow.Future { return submit(ops[i]) },
			func(i int, f *stateflow.Future) { settle(ops[i], f) })
	}
	run, err := d.finish(len(h.Invokes))
	if err != nil {
		return nil, run, err
	}

	// Backend taps: the commit order (serial mode) and the settled state.
	if serials := d.sim.CommitSerials(); serials != nil {
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
		st, ok := d.admin.Inspect(workload.Class, key)
		if !ok {
			return nil, run, d.errorf("preloaded cell %s missing from committed state", key)
		}
		h.Final[lin.Entity{Class: workload.Class, Key: key}] = lin.State{
			Version: st["version"].I, Value: st["value"].I, Last: st["last"].Str(),
		}
	}
	run.Trace = d.trace.String()
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
	v := newVerdict(fmt.Sprintf("adversarial profile=%s backend=%s seed=%d", p, backend, seed), seed, cfg)
	once := func(plan *chaos.Plan) (Run, error) {
		h, run, err := RunAdversarial(spec, backend, seed, plan, cfg)
		if err == nil {
			if err = lin.Check(h, spec.Conservation()); err != nil {
				err = fmt.Errorf("history rejected: %w", err)
			}
		}
		return run, err
	}
	_, got, err := v.pair(once)
	if err != nil {
		return got, err
	}
	if backend != stateflow.BackendStateFlow {
		return got, nil
	}
	if got.CoordRestarts == 0 {
		return v.failRun(got, "chaos run survived no coordinator reboot (restarts=0); the plan scheduled one, so the restart path went unexercised")
	}
	if cfg.Shards <= 1 {
		return got, nil
	}
	// On a sharded deployment the coordinator role spans the shard
	// coordinators, so the reboot floor above already demands a
	// single-shard crash survived. Additionally demand that the traffic
	// actually crossed shards: a sweep whose every op stayed shard-local
	// would validate the fast path and nothing else.
	if got.Sequencer.GlobalTxns == 0 {
		return v.failRun(got, "chaos run routed no transaction through the global sequencer (shards=%d); the cross-shard commit path went unexercised", cfg.Shards)
	}
	// Every seeded plan schedules sequencer crash windows; a sweep that
	// stopped rebooting the sequencer would silently shrink to shard-local
	// fault coverage.
	if got.Sequencer.Failovers == 0 {
		return v.failRun(got, "chaos run survived no sequencer failover (the plan scheduled crash windows); the recovery handshake went unexercised")
	}
	if len(got.FenceWindows) == 0 {
		return v.failRun(got, "chaos run recorded no completed fence window despite %d global txns; cannot target a mid-fence crash", got.Sequencer.GlobalTxns)
	}
	// Third run: aim one sequencer crash at the midpoint of the stretch in
	// which every footprint shard of one batch was parked at once, observed
	// under the plan. The crash is appended last and Pinned, so it consumes
	// no cluster RNG and the schedule prefix replays byte-for-byte: the
	// stretch is parked at that instant in the third run too. It ends when
	// the sequencer sends the batch's unfences (fenceWindows), not when they
	// land, so the reboot finds the batch in flight and must roll it forward
	// or abandon it. (One shard's window alone is not enough: it can open
	// well before the others park.) installCrash drops instants past the
	// horizon, and windows can outlive it (the run continues until traffic
	// settles), so each stretch is clipped to it and the widest clipped span
	// wins.
	plan := v.plan
	var win FenceWindow
	var span time.Duration
	for _, w := range batchStretches(got.FenceWindows) {
		if d := min(w.To, plan.Horizon) - w.From; d > span || (d == span && w.From < win.From) {
			win, span = w, d
		}
	}
	if span <= 0 {
		// Every observed window opens past the horizon — a property of the
		// plan (it kept the sequencer down until then), not a defect. The
		// caller owns the floor over MidFenceAimed.
		return got, nil
	}
	targeted := plan
	targeted.Name = plan.Name + "+seq-mid-fence"
	targeted.Crashes = append(slices.Clone(plan.Crashes), chaos.Crash{Role: "sequencer", Victims: 1,
		At: win.From + span/2, Downtime: 10 * time.Millisecond, Count: 1, Pinned: true})
	tgt, err := once(&targeted)
	if err != nil {
		return v.failRun(tgt, "targeted mid-fence crash run failed: %v", err)
	}
	if tgt.Sequencer.Failovers == 0 {
		return v.failRun(tgt, "targeted run survived no sequencer failover (crash aimed at %s inside batch %d's parked stretch [%s, %s])",
			win.From+span/2, win.Seq, win.From, win.To)
	}
	if tgt.Sequencer.RederivedBatches+tgt.Sequencer.AbortedBatches == 0 {
		return v.failRun(tgt, "targeted mid-fence crash neither rolled a batch forward nor abandoned one (failovers=%d); the crash missed every fenced window",
			tgt.Sequencer.Failovers)
	}
	got.MidFenceAimed = true
	got.Sequencer.Failovers += tgt.Sequencer.Failovers
	got.Sequencer.RederivedBatches += tgt.Sequencer.RederivedBatches
	got.Sequencer.AbortedBatches += tgt.Sequencer.AbortedBatches
	got.Sequencer.KnownRetries += tgt.Sequencer.KnownRetries
	return got, nil
}

// batchStretches intersects the fence windows of each global batch: the
// stretch in which all of its observed footprint shards were parked at once
// (From and To; Node is unset). A batch whose windows do not all overlap —
// a rebooted sequencer reused its id — has none.
func batchStretches(windows []FenceWindow) []FenceWindow {
	var out []FenceWindow
	at := map[int64]int{}
	for _, w := range windows {
		if i, ok := at[w.Seq]; ok {
			out[i].From, out[i].To = max(out[i].From, w.From), min(out[i].To, w.To)
			continue
		}
		at[w.Seq] = len(out)
		out = append(out, FenceWindow{Seq: w.Seq, From: w.From, To: w.To})
	}
	return slices.DeleteFunc(out, func(w FenceWindow) bool { return w.To <= w.From })
}

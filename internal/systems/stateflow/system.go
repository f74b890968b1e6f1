// Package stateflow implements the paper's StateFlow runtime (§3) on the
// simulated cluster: a transactional dataflow system with a single-core
// coordinator and a pool of workers that bundle execution, state and
// messaging. Function-to-function communication flows directly between
// workers over internal dataflow cycles (no broker roundtrips), every root
// invocation is an ACID transaction under an Aria-style deterministic
// protocol, and fault tolerance comes from aligned snapshots plus a
// replayable source.
package stateflow

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/queue"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/snapshot"
	"statefulentities.dev/stateflow/internal/systems/costmodel"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

const sourceTopic = "requests"

// Config parameterizes a StateFlow deployment.
type Config struct {
	// Workers is the worker count (the paper uses 5 workers + 1
	// coordinator on its 6 system cores).
	Workers int
	// EpochInterval is the upper bound on how long an open batch waits to
	// close. A batch closes by itself as soon as every member has finished
	// and the commit stage is free, so the bound only binds while arrivals
	// keep a member executing; it is also the idle retick, and a recovery
	// re-sends its recover message every 4 intervals.
	EpochInterval time.Duration
	// SnapshotEvery takes an aligned snapshot after every N batches
	// (0 disables).
	SnapshotEvery int
	// MaxRetries bounds deterministic re-execution of conflict-aborted
	// transactions.
	MaxRetries int
	// StallTimeout is the failure detector's patience for one batch.
	StallTimeout time.Duration
	Costs        costmodel.Costs
	// MaxBatch caps how many transactions one epoch batch may hold:
	// arrivals and post-recovery replay backlogs beyond the cap wait in
	// the source log and drain chunked over subsequent batches, so a giant
	// replay can never balloon into one pathological batch. 0: unbounded.
	MaxBatch int
	// DedupRetention bounds the journal's per-request records: a record
	// whose response was released at least this long ago — and whose
	// source position a recovery replay can no longer reach — is pruned at
	// each dlog checkpoint, and the arena and window chunks it leaves empty
	// are freed. It is the dedup window: a client retry or wire duplicate
	// older than this may be re-executed (a Builder-minted id at or below
	// its source's dedup floor is absorbed instead). 0: keep forever.
	DedupRetention time.Duration
	// SnapshotRetain keeps only the newest N complete snapshots, bounding
	// the snapshot store like the log. 0: keep all. With 1 the older ones
	// retire at the dlog checkpoint that seals a snapshot. With N >= 2 the
	// oldest retires when the next snapshot begins (N-1 are left, the sealed
	// restore point among them) and each worker encodes its new image into
	// the storage of its retired one (snapshot.Store.Compact).
	SnapshotRetain int
	// DisableFallback turns off Aria's deterministic fallback phase.
	// With the fallback on (the default), conflict-aborted transactions
	// re-execute inside the same batch as a per-entity ordered chain (see
	// epoch.go), so a pure conflict chain (t1: A→B, t2: B→C, …) commits in
	// full in one batch. Disabled, they are re-queued into the next batch
	// (the legacy one-commit-per-chain-per-batch behavior, the reference of
	// fallback_diff_test.go and internal/bench's TestGateFallback).
	DisableFallback bool
	// DisablePipelining forces the serial epoch schedule: the coordinator
	// fully settles epoch N (validate, fallback, apply, group commit,
	// snapshot) before opening epoch N+1. With pipelining on (the
	// default), two epochs run in flight — while N commits, N+1 already
	// accepts and executes — and N+1's epoch-advance record rides N's
	// group-commit fsync instead of paying its own blocking sync. Kept as
	// the reference of pipeline_diff_test.go and internal/bench's
	// TestGatePipelinedFsyncMerge.
	DisablePipelining bool
	// TraceCommits records every committed request's position in the
	// effective serial order (see Coordinator.CommitSerials) — the
	// history tap the linearizability checker's serial mode consumes.
	// Test instrumentation: the map grows with the run, so leave it off
	// outside checker harnesses.
	TraceCommits bool
	// Shards deploys the runtime as that many independent coordinator
	// groups behind a global sequencer (see sharded.go). 0 or 1 keeps the
	// classic single-coordinator topology with no sequencing layer.
	Shards int
	// FullFences forces the sequencer's historical schedule in which every
	// global batch fences every shard, not just the batch's footprint.
	// Kept as the reference of scoped_diff_test.go and internal/bench's
	// TestGateScopedFences; no effect on the classic topology.
	FullFences bool
	// Tracer, when non-nil, records per-phase transaction spans (ingress
	// queueing, execution, validation, the fallback chain, group-commit
	// fsync, fence windows) in virtual time. Deterministically inert: the
	// instrumentation only reads the clock and never touches the
	// simulation RNG or charges CPU, so a traced run's transcript is
	// byte-identical to an untraced one.
	Tracer *obs.Tracer
	// Flight, when non-nil, records cluster lifecycle events (epoch
	// advances, recoveries, replay decisions, fence transitions) for
	// post-mortem timelines. Inert like Tracer.
	Flight *obs.FlightRecorder
}

// DefaultConfig mirrors the paper's deployment shape.
func DefaultConfig() Config {
	return Config{
		Workers:        5,
		EpochInterval:  5 * time.Millisecond,
		SnapshotEvery:  0,
		MaxRetries:     64,
		StallTimeout:   250 * time.Millisecond,
		Costs:          costmodel.Default(),
		MaxBatch:       1024,
		DedupRetention: 30 * time.Second,
	}
}

// System is one shard of a StateFlow deployment: a coordinator group (one
// coordinator, its workers, their logs and snapshot store) inside a
// simulation. Clients, preloads and chaos plans reach it only through the
// deployment (ShardedSystem); a System keeps the group's stats and
// recovery surface.
type System struct {
	cfg  Config
	prog *ir.Program
	// prefix prefixes every component id this deployment registers on the
	// cluster ("<prefix>coord", "<prefix>worker-<i>"): the historical "sf-"
	// in the classic topology, "sf0-", "sf1-", … per shard, so N
	// independent coordinator groups coexist in one cluster.
	prefix string

	coordID   string
	workerIDs []string
	coord     *Coordinator
	workers   []*Worker

	RequestLog *queue.Log
	Snapshots  *snapshot.Store
	// Dlog is the coordinator's durable append log. Like the request log
	// and the snapshot store it models an attached durable device: its
	// synced contents survive a coordinator crash, its unsynced tail tears
	// per the device contract.
	Dlog *dlog.SimLog

	restart   func(id string)
	isCrashed func(id string) bool

	// shardIndex is this deployment's position on the shard ring (0 in
	// the classic topology): the coordinator uses it to pick out its own
	// home-shard responses from a global batch manifest. seqID is the
	// sequencer in front of the ring ("" in the classic topology): where a
	// parked coordinator sends the fence acks no request is waiting for.
	shardIndex int
	seqID      string
}

// newSystem builds and registers one coordinator group on the cluster
// under the component-id prefix; its workers step events on the
// deployment's executor ex. Callers outside the package use New
// (sharded.go), which deploys either the classic topology or N groups
// behind a sequencer per Config.Shards.
func newSystem(cluster *sim.Cluster, prog *ir.Program, ex *core.Executor, cfg Config, prefix string) *System {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	sys := &System{
		cfg:        cfg,
		prog:       prog,
		prefix:     prefix,
		coordID:    prefix + "coord",
		RequestLog: queue.NewLog(),
		Snapshots:  snapshot.NewStore(prog.Layouts()),
		Dlog:       dlog.NewSimLog(),
		restart:    cluster.Restart,
		isCrashed:  cluster.IsCrashed,
	}
	if err := sys.RequestLog.CreateTopic(sourceTopic, 1); err != nil {
		panic(err) // fresh log; cannot happen
	}
	// The device applies its crash contract at the coordinator's crash
	// instant: synced records survive, the in-flight tail tears.
	cluster.WatchCrash(sys.coordID, sys.Dlog.Crash)
	sys.coord = newCoordinator(sys)
	cluster.Add(sys.coordID, sys.coord)
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(sys, ex, i)
		sys.workers = append(sys.workers, w)
		sys.workerIDs = append(sys.workerIDs, w.id)
		cluster.Add(w.id, w)
	}
	return sys
}

// Coordinator exposes the coordinator for stats and recovery control.
func (s *System) Coordinator() *Coordinator { return s.coord }

// MetricsNamespace returns the deployment's dotted metric prefix: the
// historical default deployment keeps the bare "stateflow." namespace,
// while sharded deployments nest their shard prefix ("stateflow.sf0.")
// so N shards coexist in one registry.
func (s *System) MetricsNamespace() string {
	if s.prefix == "sf-" {
		return "stateflow."
	}
	return "stateflow." + strings.TrimSuffix(s.prefix, "-") + "."
}

// RegisterMetrics publishes the deployment's stats structs into a registry
// under its namespace: the coordinator's, the durable log's and the
// workers' (summed over the workers). The fields stay the canonical
// storage; the registry reads them at exposition time.
func (s *System) RegisterMetrics(reg *obs.Registry) {
	ns := s.MetricsNamespace()
	reg.Fields(ns+"coordinator.", func() any { return s.coord.CoordinatorStats })
	reg.Fields(ns+"dlog.", func() any { return s.Dlog.Stats() })
	reg.Fields(ns+"worker.", func() any {
		return perWorker(s.workers, func(w *Worker) WorkerStats { return w.WorkerStats })
	})
	reg.Fields(ns+"worker.cpu.", func() any {
		return perWorker(s.workers, func(w *Worker) WorkerCPU { return w.CPU })
	})
}

// perWorker reads one stats struct off every worker.
func perWorker[T any](workers []*Worker, read func(*Worker) T) []T {
	out := make([]T, len(workers))
	for i, w := range workers {
		out[i] = read(w)
	}
	return out
}

// Workers exposes the worker components.
func (s *System) Workers() []*Worker { return s.workers }

// WorkerIDs lists worker component ids.
func (s *System) WorkerIDs() []string { return append([]string(nil), s.workerIDs...) }

// ownerOf routes an entity to its worker partition.
func (s *System) ownerOf(ref interp.EntityRef) string { return s.workerIDs[s.OwnerIndex(ref)] }

// OwnerIndex returns the index of the worker owning a ref, by stable key
// hash.
func (s *System) OwnerIndex(ref interp.EntityRef) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ref.Class))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(ref.Key))
	return int(h.Sum32() % uint32(len(s.workerIDs)))
}

// CheckpointPreloadedState writes an initial snapshot covering the
// preloaded dataset so a recovery that happens before the first periodic
// snapshot rolls back to the loaded state instead of to empty stores. The
// snapshot is sealed by an initial log checkpoint — only sealed snapshots
// are restorable, and the preloaded dataset depends on no volatile
// records, so it is sealable immediately.
func (s *System) CheckpointPreloadedState() {
	id := s.Snapshots.BeginWithPending(0, map[string][]int64{sourceTopic: {0}}, nil, len(s.workers))
	for _, w := range s.workers {
		if _, err := s.Snapshots.WriteStore(id, w.id, w.committed); err != nil {
			panic(fmt.Sprintf("stateflow: preload checkpoint: %v", err))
		}
	}
	// The preload images contain no released response's effects, so the
	// snapshot's cut predates every release: -1, not the wall time of the
	// preload (a release at virtual time zero must still classify as
	// binding against it).
	s.coord.sealed, s.coord.sealedCut, s.coord.snapshotID = id, -1, id
	s.coord.journal.bootstrap(marks{sealed: id, sealedCut: -1})
}

// failureContract is the StateFlow runtime's written failure contract for
// a deployment made of the given roles (component ids per role: one
// coordinator group, or every shard's plus the sequencer), consumed by
// the chaos engine.
//
//   - Every role is crashable. Workers: the coordinator's stall detector
//     guards every worker-dependent phase (execution, apply, snapshot), so
//     a dead worker is detected and the system rolls back to
//     the last sealed snapshot and replays; the rollback itself retries
//     until every worker has answered it. The coordinator: its restart
//     reboots from the journal's durable log (epoch high-water mark,
//     delivered responses), rolls the workers back and replays the source
//     suffix. The sequencer: see ShardedSystem.ChaosTopology.
//   - Every delivery between two components of the deployment may be
//     dropped: a lost message stalls the phase that needed it, which
//     triggers recovery (or, for the recovery and fence protocols, a timer
//     re-sends it). The client edge is drop-safe as well — a lost
//     request is covered by client-driven retry (the ingress dedupes ids),
//     a lost response by the durable egress buffer, which re-serves the
//     recorded response to the retrying client instead of suppressing it.
//   - Duplicates are safe wherever a receiver dedupes or rejects stale
//     copies: epoch/phase/id guards on every coordination message
//     (coordinator-, worker- and sequencer-side), the ingress dedup for
//     client requests and global applies (exactly-once input), the
//     client's response dedup. Only msgTxnEvent is excluded: a second
//     delivery inside the same epoch would re-execute the event in the
//     same workspace, and step an event its call chain already moved past
//     (a hop's receiver owns the message body, the event and its context;
//     see msgTxnEvent). A new coordination message is declared
//     duplicate-safe here and nowhere else.
func failureContract(roles map[string][]string) chaos.Topology {
	members := map[string]bool{}
	crashable := map[string]bool{}
	for role, ids := range roles {
		crashable[role] = true
		for _, id := range ids {
			members[id] = true
		}
	}
	return chaos.Topology{
		Roles:     roles,
		Crashable: crashable,
		DropSafe: func(from, to string, msg sim.Message) bool {
			switch {
			case members[from] && members[to]:
				return true
			case members[to]:
				_, ok := msg.(sysapi.MsgRequest)
				return ok // clients retry; the ingress dedupes
			case members[from]:
				_, ok := msg.(sysapi.MsgResponse)
				return ok // retries are re-served from the egress buffer
			}
			return false
		},
		DupSafe: func(from, to string, msg sim.Message) bool {
			switch msg.(type) {
			case msgTxnFinished, *msgDecide, msgApplied, msgChainRelease,
				msgTakeSnapshot, msgSnapshotDone, msgRecover, msgRecovered,
				msgFence, msgFenceAck, msgUnfence, msgUnfenceAck,
				msgGlobalApply,
				msgSeqFenceQuery, msgSeqFenceReport:
				return true
			case sysapi.MsgRequest, sysapi.MsgResponse:
				return true
			}
			return false
		},
		ResponseID: func(msg sim.Message) (string, bool) {
			if m, ok := msg.(sysapi.MsgResponse); ok {
				return m.Response.Req, true
			}
			return "", false
		},
		RequestID: func(msg sim.Message) (string, bool) {
			if m, ok := msg.(sysapi.MsgRequest); ok {
				return m.Request.Req, true
			}
			return "", false
		},
	}
}

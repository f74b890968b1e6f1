// Sharded multi-coordinator topology: the entity space is partitioned
// across N independent StateFlow deployments (each with its own
// coordinator, worker pool, Aria epochs and dlog recovery domain), in
// front of which a thin Calvin-style sequencing layer assigns global
// batch ids to cross-shard transactions so they order deterministically
// across the whole cluster — while single-shard transactions never leave
// their shard.
//
// Routing hashes (class-id, key) — the compiler's slotted class ids, not
// class names — onto the shard ring. A request whose method is ref-closed
// (its transitive footprint is derivable from the receiver and its
// entity-ref arguments: ir.Method.RefClosed, stamped at compile time) and
// whose refs all land on one shard takes the fast path: the sequencer
// forwards it to that shard's coordinator and the shard answers the
// client directly, paying nothing for the existence of other shards.
// Everything else becomes a global transaction, run by the sequencer
// (sequencer.go).
package stateflow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// ShardedSystem is the StateFlow sysapi.Backend: Config.Shards coordinator
// groups on a ring, every client, preload and chaos call routed ref →
// shard → owning worker. With Shards <= 1 it is the classic topology, a
// ring of one deployment with no sequencer in front; Single returns that
// deployment's stats and recovery surface (Coordinator, Workers, Dlog, …).
type ShardedSystem struct {
	cfg    Config
	prog   *ir.Program
	ex     *core.Executor // stateless; shared by every worker and the sequencer
	shards []*System
	seq    *Sequencer
}

// sequencerID is the global sequencer's component id in a sharded
// deployment.
const sequencerID = "sf-seq"

// New builds and registers a StateFlow deployment on the cluster.
// cfg.Shards picks the topology: 0 or 1 deploys the classic
// single-coordinator runtime (component ids "sf-coord", "sf-worker-<i>",
// byte-identical to the historical unsharded deployment), anything
// larger deploys that many coordinator groups ("sf<i>-…") behind the
// global sequencer "sf-seq".
func New(cluster *sim.Cluster, prog *ir.Program, cfg Config) *ShardedSystem {
	s := &ShardedSystem{cfg: cfg, prog: prog, ex: core.NewExecutor(prog)}
	if cfg.Shards <= 1 {
		s.shards = []*System{newSystem(cluster, prog, s.ex, cfg, "sf-")}
		return s
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newSystem(cluster, prog, s.ex, cfg, fmt.Sprintf("sf%d-", i))
		sh.shardIndex, sh.seqID = i, sequencerID
		s.shards = append(s.shards, sh)
	}
	s.seq = newSequencer(s)
	cluster.Add(sequencerID, s.seq)
	return s
}

// shardOfCoord returns the ring position of the shard whose coordinator
// is id; ok is false for any other sender.
func (s *ShardedSystem) shardOfCoord(id string) (pos int, ok bool) {
	for _, sh := range s.shards {
		if sh.coordID == id {
			return sh.shardIndex, true
		}
	}
	return 0, false
}

// Single returns the classic topology's sole deployment (nil when a
// sequencer fronts multiple shards).
func (s *ShardedSystem) Single() *System {
	if s.seq != nil {
		return nil
	}
	return s.shards[0]
}

// ShardOf routes an entity to its shard by stable (class-id, key) hash.
// The class id comes from the compiler's slotted layout registry, so two
// deployments of the same program always agree on the ring.
func (s *ShardedSystem) ShardOf(ref interp.EntityRef) int {
	h := fnv.New32a()
	var cid [4]byte
	binary.LittleEndian.PutUint32(cid[:], uint32(s.prog.Layouts().IDOf(ref.Class)))
	_, _ = h.Write(cid[:])
	_, _ = h.Write([]byte(ref.Key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shards exposes the shard deployments (stats, tests).
func (s *ShardedSystem) Shards() []*System { return s.shards }

// Sequencer exposes the global sequencing layer (nil for Shards <= 1).
func (s *ShardedSystem) Sequencer() *Sequencer { return s.seq }

// RegisterMetrics publishes every shard's counters plus the sequencing
// layer's, each under its own namespace (see System.RegisterMetrics).
func (s *ShardedSystem) RegisterMetrics(reg *obs.Registry) {
	for _, sh := range s.shards {
		sh.RegisterMetrics(reg)
	}
	if s.seq == nil {
		return
	}
	reg.Fields("stateflow.sequencer.", func() any { return s.seq.Stats() })
}

// IngressID implements sysapi.System: clients talk to the sequencer (or
// straight to the coordinator in the classic topology).
func (s *ShardedSystem) IngressID() string {
	if s.seq == nil {
		return s.shards[0].coordID
	}
	return sequencerID
}

// ClientLink implements sysapi.System.
func (s *ShardedSystem) ClientLink() sim.Latency { return s.cfg.Costs.ClientLink }

// KeyForCtor implements sysapi.Backend: the routing key of a constructor
// call, derived from its argument list.
func (s *ShardedSystem) KeyForCtor(class string, args []interp.Value) (string, error) {
	return s.ex.KeyForCtor(class, args)
}

// owner returns the worker owning an entity: its shard, then its
// partition on that shard.
func (s *ShardedSystem) owner(ref interp.EntityRef) *Worker {
	sh := s.shards[s.ShardOf(ref)]
	return sh.workers[sh.OwnerIndex(ref)]
}

// Preload installs entity state directly on the owning worker, bypassing
// the dataflow (benchmark dataset loading). Call before Start.
func (s *ShardedSystem) Preload(ref interp.EntityRef, st interp.MapState) {
	s.owner(ref).committed.PutMap(ref, st)
}

// PreloadEntity implements sysapi.Backend: it preloads the state an entity
// would have after __init__ with the given args.
func (s *ShardedSystem) PreloadEntity(class string, args ...interp.Value) error {
	ref, row, err := s.ex.InitRow(class, args)
	if err != nil {
		return err
	}
	s.owner(ref).committed.Put(ref, row)
	return nil
}

// CheckpointPreloadedState seals the preloaded dataset on every shard.
func (s *ShardedSystem) CheckpointPreloadedState() {
	for _, sh := range s.shards {
		sh.CheckpointPreloadedState()
	}
}

// EntityState implements sysapi.Backend: an entity's committed state
// (test assertions).
func (s *ShardedSystem) EntityState(class, key string) (interp.MapState, bool) {
	ref := interp.EntityRef{Class: class, Key: key}
	st, ok := s.owner(ref).committed.Lookup(ref)
	if !ok {
		return nil, false
	}
	return st.CloneMap(), true
}

// Keys implements sysapi.Backend: the keys of every committed entity of a
// class, sorted across every worker of every shard.
func (s *ShardedSystem) Keys(class string) []string {
	var out []string
	for _, sh := range s.shards {
		for _, w := range sh.workers {
			out = append(out, w.committed.Keys(class)...)
		}
	}
	sort.Strings(out)
	return out
}

// ChaosTopology implements sysapi.Backend: the written failure contract
// (see failureContract) of every shard's coordinator group plus the
// sequencing layer. The "coordinator" and "worker" roles span all shards
// in ring order, so a chaos plan that crashes "the coordinator" picks one
// shard's coordinator — exactly the single-shard-crash coverage the
// adversarial sweep requires. The sequencer is crashable: it keeps no
// durable state, but every in-flight batch is re-derivable from the
// shards' durable fence markers and the manifest of the logged applies, so
// a reboot rolls the batch forward or abandons it; it never held a
// response, so it has none to lose — answered transactions are re-served
// under the fence from their home shards' journals, before a failover and
// after (failover.go).
func (s *ShardedSystem) ChaosTopology() chaos.Topology {
	roles := map[string][]string{}
	if s.seq != nil {
		roles["sequencer"] = []string{sequencerID}
	}
	for _, sh := range s.shards {
		roles["coordinator"] = append(roles["coordinator"], sh.coordID)
		roles["worker"] = append(roles["worker"], sh.workerIDs...)
	}
	return failureContract(roles)
}

var _ sysapi.Backend = (*ShardedSystem)(nil)

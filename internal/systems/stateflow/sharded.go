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
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// ShardedSystem is a sysapi.Backend deploying Config.Shards coordinator
// groups. With Shards <= 1 it is the classic topology — exactly one
// deployment, no sequencer — and the embedded *System exposes the full
// single-deployment surface (Coordinator, Workers, Dlog, …) directly.
type ShardedSystem struct {
	// System is the sole deployment of a classic (Shards <= 1) topology;
	// nil when a sequencer fronts multiple shards, so misrouted
	// single-deployment accesses fail loudly instead of silently reading
	// shard 0.
	*System

	cfg      Config
	prog     *ir.Program
	shards   []*System
	shardIdx map[string]int // coordID -> shard ring position
	seq      *Sequencer
	seqID    string
}

// New builds and registers a StateFlow deployment on the cluster.
// cfg.Shards picks the topology: 0 or 1 deploys the classic
// single-coordinator runtime (component ids "sf-coord", "sf-worker-<i>",
// byte-identical to the historical unsharded deployment), anything
// larger deploys that many coordinator groups ("sf<i>-…") behind the
// global sequencer "sf-seq".
func New(cluster *sim.Cluster, prog *ir.Program, cfg Config) *ShardedSystem {
	s := &ShardedSystem{cfg: cfg, prog: prog, seqID: "sf-seq", shardIdx: map[string]int{}}
	if cfg.Shards <= 1 {
		sys := newSystem(cluster, prog, cfg, "sf-")
		s.System = sys
		s.shards = []*System{sys}
		s.shardIdx[sys.coordID] = 0
		return s
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newSystem(cluster, prog, cfg, fmt.Sprintf("sf%d-", i))
		sh.shardIndex, sh.seqID = i, s.seqID
		s.shards = append(s.shards, sh)
		s.shardIdx[sh.coordID] = i
	}
	s.seq = newSequencer(s)
	cluster.Add(s.seqID, s.seq)
	return s
}

// Single returns the classic topology's sole deployment (nil when a
// sequencer fronts multiple shards).
func (s *ShardedSystem) Single() *System { return s.System }

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
	return s.seqID
}

// ClientLink implements sysapi.System.
func (s *ShardedSystem) ClientLink() sim.Latency { return s.cfg.Costs.ClientLink }

// KeyForCtor implements sysapi.Backend.
func (s *ShardedSystem) KeyForCtor(class string, args []interp.Value) (string, error) {
	return s.shards[0].KeyForCtor(class, args)
}

// Preload installs entity state on its owning shard.
func (s *ShardedSystem) Preload(ref interp.EntityRef, st interp.MapState) {
	s.shards[s.ShardOf(ref)].Preload(ref, st)
}

// PreloadEntity implements sysapi.Backend.
func (s *ShardedSystem) PreloadEntity(class string, args ...interp.Value) error {
	key, err := s.KeyForCtor(class, args)
	if err != nil {
		return err
	}
	ref := interp.EntityRef{Class: class, Key: key}
	return s.shards[s.ShardOf(ref)].PreloadEntity(class, args...)
}

// CheckpointPreloadedState seals the preloaded dataset on every shard.
func (s *ShardedSystem) CheckpointPreloadedState() {
	for _, sh := range s.shards {
		sh.CheckpointPreloadedState()
	}
}

// EntityState implements sysapi.Backend.
func (s *ShardedSystem) EntityState(class, key string) (interp.MapState, bool) {
	ref := interp.EntityRef{Class: class, Key: key}
	return s.shards[s.ShardOf(ref)].EntityState(class, key)
}

// Keys implements sysapi.Backend: merged across shards.
func (s *ShardedSystem) Keys(class string) []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.Keys(class)...)
	}
	sort.Strings(out)
	return out
}

// ChaosTopology implements sysapi.Backend: the union of every shard's
// contract plus the sequencing layer. The aggregate "coordinator" and
// "worker" roles span all shards, so a chaos plan that crashes "the
// coordinator" picks one shard's coordinator — exactly the
// single-shard-crash coverage the adversarial sweep requires. The
// sequencer is crashable: it keeps no durable state, but every in-flight
// batch is re-derivable from the shards' durable fence markers and the
// manifest of the logged applies, so a reboot rolls the batch forward or
// abandons it; it never held a response, so it has none to lose — answered
// transactions are re-served under the fence from their home shards'
// journals, before a failover and after (failover.go).
func (s *ShardedSystem) ChaosTopology() chaos.Topology {
	if s.seq == nil {
		return s.shards[0].ChaosTopology()
	}
	roles := map[string][]string{"sequencer": {s.seqID}}
	for _, sh := range s.shards {
		for role, ids := range sh.ChaosTopology().Roles {
			roles[role] = append(roles[role], ids...)
		}
	}
	return failureContract(roles)
}

var _ sysapi.Backend = (*ShardedSystem)(nil)

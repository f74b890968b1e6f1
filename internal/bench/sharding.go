// The sharded-scaling experiment: a fixed
// batch of single-shard transactions (plus a small cross-shard tail) is
// offered faster than one coordinator can drain it, and the measured
// virtual makespan turns into committed transactions per virtual second.
// Scaling the same workload from one shard to four must multiply that
// throughput — the whole point of the multi-coordinator topology is that
// single-shard traffic pays nothing for the other shards' existence. All
// virtual-time metrics are deterministic functions of the seed, so
// gates_test.go holds the 4-shard / 1-shard ratio in tier-1.
package bench

import (
	"fmt"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// Sharded-scaling experiment shape.
const (
	shardingAccounts = 320  // dataset, hashed across the shard ring
	shardingUpdates  = 4800 // single-shard (ref-closed) update transactions
	// shardingXfers is the cross-shard tail: transfers whose two accounts
	// hash to different shards become globally sequenced transactions.
	// Deliberately sparse — every global batch fences its footprint (both
	// shards at 2, so effectively the cluster), so the mix models a
	// workload where cross-shard commerce is the rare case the routing
	// fast path is designed around. On one shard the classic topology
	// deploys and every pair is trivially co-located.
	shardingXfers = 12
	// shardingSpacing offers ~20k RPS — far beyond one shard's worker
	// pool (5 workers at ~0.5ms of CPU per transaction saturate near
	// 5k RPS), so the single-shard makespan measures drain capacity, not
	// arrival spacing.
	shardingSpacing = 50 * time.Microsecond
	// shardingEpoch pins the Aria batch interval: the fence protocol
	// drains every shard's in-flight epochs before a global batch runs,
	// so the epoch length directly prices each fence window. Pinned
	// (rather than inheriting -epoch) so the scaling rows measure the
	// topology, not the epoch schedule.
	shardingEpoch = 5 * time.Millisecond
	// shardingDeadline bounds the drain wait (virtual time).
	shardingDeadline = 120 * time.Second
)

// ShardingRow is one measured shard count on the fixed scaling workload.
type ShardingRow struct {
	Name   string
	Shards int
	// TxnPerVirtualSec is the headline scaling metric: the fixed workload
	// size divided by the virtual makespan (first arrival to last
	// response).
	TxnPerVirtualSec  float64
	VirtualMakespanMs float64
	VirtualP50Ms      float64
	VirtualP99Ms      float64
	// Commits aggregates over every shard coordinator (global write-set
	// applies ride the same Aria machinery, so they are counted too).
	Commits int
	// SingleShard / GlobalTxns / GlobalBatches are the sequencer's
	// routing split: fast-path forwards versus globally fenced
	// transactions and their batch count.
	SingleShard   int
	GlobalTxns    int
	GlobalBatches int
}

// RunSharding measures the fixed scaling workload at 1, 2 and 4 shards.
func RunSharding(opt Options) ([]ShardingRow, error) {
	var out []ShardingRow
	for _, shards := range []int{1, 2, 4} {
		row, err := runShardingPoint(opt, shards)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func runShardingPoint(opt Options, shards int) (ShardingRow, error) {
	h, err := Deploy(Deployment{Seed: opt.Seed, System: "stateflow", Config: func(cfg *stateflow.Config) {
		cfg.EpochInterval = shardingEpoch
		cfg.SnapshotEvery = 10
		cfg.Shards = shards
	}})
	if err != nil {
		return ShardingRow{}, err
	}
	if err := h.Preload(shardingAccounts, ycsb.Loader(shardingAccounts, 0)); err != nil {
		return ShardingRow{}, err
	}

	// The script interleaves the cross-shard tail into the update stream:
	// one transfer every updates/xfers operations, over pairs whose
	// offsets vary so a useful fraction hashes across shards at every
	// shard count. Which pairs actually cross depends on the ring hash —
	// the row records the realized routing split.
	var script []sysapi.Scheduled
	at := time.Millisecond
	xferEvery := shardingUpdates / shardingXfers
	xfer := 0
	for i := 0; i < shardingUpdates; i++ {
		script = append(script, call(at, fmt.Sprintf("u%04d", i), ycsb.Key(i%shardingAccounts), "update", interp.IntV(1)))
		at += shardingSpacing
		if i%xferEvery == xferEvery-1 {
			from := (xfer * 37) % shardingAccounts
			to := (from + 1 + xfer*13) % shardingAccounts
			xfer++
			script = append(script, call(at, fmt.Sprintf("x%04d", i), ycsb.Key(from), "transfer",
				interp.IntV(5), interp.RefV("Account", ycsb.Key(to))))
			at += shardingSpacing
		}
	}
	// The virtual makespan of the fixed workload is the scaling
	// measurement (1 ms resolution, deterministic per seed).
	client := h.Script("client", script)
	if err := h.Drain(shardingDeadline); err != nil {
		return ShardingRow{}, fmt.Errorf("sharding (%d shards): %w", shards, err)
	}

	total := len(script)
	makespan := client.DrainedAt - time.Millisecond // first arrival at 1ms
	lat := client.Latency.Snapshot()
	row := ShardingRow{
		Name:              fmt.Sprintf("sharding/shards=%d", shards),
		Shards:            shards,
		TxnPerVirtualSec:  float64(total) / makespan.Seconds(),
		VirtualMakespanMs: float64(makespan) / float64(time.Millisecond),
		VirtualP50Ms:      lat.P50Ms(),
		VirtualP99Ms:      lat.P99Ms(),
	}
	// The 1-shard point deploys the classic topology (no sequencer): every
	// transaction is trivially single-"shard" and there is no routing
	// split to record.
	if q := h.SF.Sequencer(); q != nil {
		row.SingleShard = q.SingleShard
		row.GlobalTxns = q.GlobalTxns
		row.GlobalBatches = q.GlobalBatches
	} else {
		row.SingleShard = total
	}
	for _, sh := range h.SF.Shards() {
		row.Commits += sh.Coordinator().Commits
	}
	return row, nil
}

// PrintSharding renders the scaling comparison as a table.
func PrintSharding(rows []ShardingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded scaling: %d updates + %d cross-shard transfers offered at ~%.0f RPS\n",
		shardingUpdates, shardingXfers, float64(time.Second)/float64(shardingSpacing))
	fmt.Fprintf(&b, "%-20s %14s %13s %12s %12s %9s %9s %9s\n",
		"config", "txn/virt-sec", "makespan", "p50(virt)", "p99(virt)", "single", "global", "batches")
	base := 0.0
	for _, r := range rows {
		speedup := ""
		if r.Shards == 1 {
			base = r.TxnPerVirtualSec
		} else if base > 0 {
			speedup = fmt.Sprintf("  (%.2fx)", r.TxnPerVirtualSec/base)
		}
		fmt.Fprintf(&b, "%-20s %14.0f %12.0fms %11.2fms %11.2fms %9d %9d %9d%s\n",
			r.Name, r.TxnPerVirtualSec, r.VirtualMakespanMs, r.VirtualP50Ms, r.VirtualP99Ms,
			r.SingleShard, r.GlobalTxns, r.GlobalBatches, speedup)
	}
	return b.String()
}

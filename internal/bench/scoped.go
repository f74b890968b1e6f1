// The scoped-fence experiment: a steady
// stream of cross-shard transfers pinned to shards {0, 1} runs
// concurrently with a fixed batch of single-shard updates whose accounts
// all live on shards {2, 3}. With footprint-scoped fences the untouched
// shards never park — the update stream drains at full speed while the
// transfer stream fences the other half of the ring. With the historical
// fence-everything schedule (Config.FullFences) every global batch
// parks all four shards, so the same update stream repeatedly stalls
// behind fences for traffic it never touches. The gated metric is the
// untouched-shard throughput ratio between the two modes; all
// virtual-time metrics are deterministic functions of the seed, so
// gates_test.go holds the ratio in tier-1.
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

// Scoped-fence experiment shape.
const (
	scopedShards   = 4
	scopedAccounts = 320 // dataset, hashed across the 4-shard ring
	// scopedUpdates is the measured stream: single-shard updates whose
	// accounts all hash to shards 2 or 3 — the shards the transfer
	// stream never touches.
	scopedUpdates = 2400
	// scopedXfers is the fencing stream: transfers between a shard-0 and
	// a shard-1 account, spread across the update stream's span so the
	// sequencer holds a {0, 1} fence for most of the measurement window.
	scopedXfers = 96
	// scopedSpacing offers the update stream well beyond one shard's
	// drain rate (same reasoning as shardingSpacing).
	scopedSpacing = 50 * time.Microsecond
	// scopedXferSpacing paces the fencing stream: a fresh global batch
	// roughly every epoch, so fences are near back-to-back.
	scopedXferSpacing = 1250 * time.Microsecond
	// scopedDeadline bounds the drain wait (virtual time).
	scopedDeadline = 120 * time.Second
)

// ScopedFenceRow is one fence schedule measured on the mixed workload.
type ScopedFenceRow struct {
	Name string
	// FullFences records the schedule: false is the footprint-scoped
	// default, true the historical fence-everything reference.
	FullFences bool
	// UntouchedTxnPerVirtualSec is the gated metric: the update stream's
	// size divided by its own virtual makespan (first arrival to its
	// last response). Only updates on shards outside every transfer
	// footprint count — this is the traffic scoping is supposed to make
	// free.
	UntouchedTxnPerVirtualSec float64
	UntouchedMakespanMs       float64
	VirtualP50Ms              float64
	VirtualP99Ms              float64
	// GlobalBatches / ScopedFences / FullFenceCount are the sequencer's
	// fence accounting: the gate uses ScopedFences > 0 to reject a
	// vacuous scoped run (a mix whose transfers accidentally fence
	// everything would gate nothing).
	GlobalTxns     int
	GlobalBatches  int
	ScopedFences   int
	FullFenceCount int
}

// RunScopedFences measures the mixed workload under both fence
// schedules: scoped (the default) and fence-everything (the reference).
func RunScopedFences(opt Options) ([]ScopedFenceRow, error) {
	var out []ScopedFenceRow
	for _, full := range []bool{false, true} {
		row, err := runScopedFencePoint(opt, full)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func runScopedFencePoint(opt Options, fullFences bool) (ScopedFenceRow, error) {
	h, err := Deploy(Deployment{Seed: opt.Seed, System: "stateflow", Config: func(cfg *stateflow.Config) {
		cfg.EpochInterval = shardingEpoch
		cfg.SnapshotEvery = 10
		cfg.Shards = scopedShards
		cfg.FullFences = fullFences
	}})
	if err != nil {
		return ScopedFenceRow{}, err
	}
	if err := h.Preload(scopedAccounts, ycsb.Loader(scopedAccounts, 0)); err != nil {
		return ScopedFenceRow{}, err
	}

	// Partition the dataset by realized ring position: the transfer
	// stream alternates over shard-0/shard-1 pairs, the update stream
	// round-robins over everything on shards 2 and 3.
	byShard := map[int][]string{}
	for i := 0; i < scopedAccounts; i++ {
		key := ycsb.Key(i)
		sh := h.SF.ShardOf(interp.EntityRef{Class: "Account", Key: key})
		byShard[sh] = append(byShard[sh], key)
	}
	var untouched []string
	for _, sh := range []int{2, 3} {
		untouched = append(untouched, byShard[sh]...)
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 || len(untouched) == 0 {
		return ScopedFenceRow{}, fmt.Errorf("scoped-fence: degenerate ring split %d/%d/%d/%d",
			len(byShard[0]), len(byShard[1]), len(byShard[2]), len(byShard[3]))
	}

	var updates, xfers []sysapi.Scheduled
	at := time.Millisecond
	for i := 0; i < scopedUpdates; i++ {
		updates = append(updates, call(at, fmt.Sprintf("u%04d", i), untouched[i%len(untouched)], "update", interp.IntV(1)))
		at += scopedSpacing
	}
	at = time.Millisecond
	for i := 0; i < scopedXfers; i++ {
		from := byShard[0][i%len(byShard[0])]
		to := byShard[1][(i*7)%len(byShard[1])]
		xfers = append(xfers, call(at, fmt.Sprintf("x%04d", i), from, "transfer", interp.IntV(5), interp.RefV("Account", to)))
		at += scopedXferSpacing
	}
	// Two clients so the untouched stream's makespan is measured on its
	// own completion, not the transfer tail's.
	uclient := h.Script("uclient", updates)
	h.Script("xclient", xfers)
	if err := h.Drain(scopedDeadline); err != nil {
		return ScopedFenceRow{}, fmt.Errorf("scoped-fence (full=%v): %w", fullFences, err)
	}

	makespan := uclient.DrainedAt - time.Millisecond // first arrival at 1ms
	lat := uclient.Latency.Snapshot()
	mode := "scoped"
	if fullFences {
		mode = "full"
	}
	q := h.SF.Sequencer()
	return ScopedFenceRow{
		Name:                      fmt.Sprintf("scoped-fence/mode=%s", mode),
		FullFences:                fullFences,
		UntouchedTxnPerVirtualSec: float64(scopedUpdates) / makespan.Seconds(),
		UntouchedMakespanMs:       float64(makespan) / float64(time.Millisecond),
		VirtualP50Ms:              lat.P50Ms(),
		VirtualP99Ms:              lat.P99Ms(),
		GlobalTxns:                q.GlobalTxns,
		GlobalBatches:             q.GlobalBatches,
		ScopedFences:              q.ScopedFences,
		FullFenceCount:            q.FullFences,
	}, nil
}

// PrintScopedFences renders the schedule comparison as a table.
func PrintScopedFences(rows []ScopedFenceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scoped fences: %d untouched-shard updates vs %d cross-shard transfers pinned to shards {0,1} (4 shards)\n",
		scopedUpdates, scopedXfers)
	fmt.Fprintf(&b, "%-26s %16s %13s %12s %12s %9s %9s %9s\n",
		"config", "untouched/sec", "makespan", "p50(virt)", "p99(virt)", "globals", "scoped", "full")
	var full float64
	for _, r := range rows {
		if r.FullFences {
			full = r.UntouchedTxnPerVirtualSec
		}
	}
	for _, r := range rows {
		speedup := ""
		if !r.FullFences && full > 0 {
			speedup = fmt.Sprintf("  (%.2fx vs full)", r.UntouchedTxnPerVirtualSec/full)
		}
		fmt.Fprintf(&b, "%-26s %16.0f %12.0fms %11.2fms %11.2fms %9d %9d %9d%s\n",
			r.Name, r.UntouchedTxnPerVirtualSec, r.UntouchedMakespanMs, r.VirtualP50Ms, r.VirtualP99Ms,
			r.GlobalTxns, r.ScopedFences, r.FullFenceCount, speedup)
	}
	return b.String()
}

// Command bench-compare is the CI bench-regression gate: it compares a
// freshly re-run contention benchmark against the checked-in baseline
// (BENCH_pr10.json) and fails if the Aria fallback's wins, the epoch
// pipeline's fsync merge, the sharded topology's scaling, or the
// footprint-scoped fence schedule's untouched-shard win regress.
//
//	bench-compare -baseline BENCH_pr10.json -current /tmp/BENCH_now.json
//
// The gated metrics are deterministic functions of the simulation seed —
// commits-per-batch and the fallback-on/off virtual-latency ratio — so
// the comparison is stable on shared runners: an unchanged protocol
// reproduces the baseline exactly, and only a real behavioral regression
// (or an intentional, reviewed change to the protocol that warrants
// regenerating the baseline) moves them. The artifact carries no
// wall-clock field: those belong to the repo benchmark (benchmark/).
//
// Checks:
//
//  1. commits-per-batch with the fallback on must not drop below the
//     baseline: the chain must keep draining in O(1) batches.
//  2. the fallback-on/off virtual-latency ratio (p50 and p99) must not
//     regress by more than 15% relative to the baseline ratio.
//  3. both modes must commit every transaction (equivalence: the
//     fallback changes when transactions commit, never whether).
//  4. the pipelined dlog-on hot path must keep its fsync merge: fsyncs
//     per commit at most 1/1.5 of the serial dlog-on baseline, virtual
//     p50 no worse than it, and the pipeline-on/off fsync ratio no worse
//     than the baseline's.
//  5. the sharded topology must keep scaling: 4-shard virtual throughput
//     on the sharded mix at least 2.5x the 1-shard row, and the realized
//     scaling ratio must not regress more than 15% against the baseline.
//  6. footprint-scoped fences must keep untouched shards fast: on the
//     mixed workload (updates pinned to shards the transfers never touch)
//     the scoped schedule's untouched-shard throughput must be at least
//     1.5x the fence-everything reference, and the realized ratio must
//     not regress more than 15% against the baseline. The scoped row must
//     record ScopedFences > 0 and the reference row ScopedFences == 0 —
//     otherwise the comparison is vacuous (the workload stopped
//     exercising scoping, or the reference stopped fencing everything).
package main

import (
	"flag"
	"fmt"
	"os"

	"statefulentities.dev/stateflow/internal/bench"
)

// tolerance is the allowed relative regression of the latency ratio.
const tolerance = 0.15

// syncMergeFactor is the minimum fsync reduction the pipelined schedule
// must hold over the serial dlog-on baseline: adjacent epochs share one
// group-commit sync, so fsyncs per commit must drop at least 1.5x.
const syncMergeFactor = 1.5

// shardScalingFloor is the minimum 4-shard/1-shard virtual-throughput
// ratio on the sharded scaling mix: four coordinator groups must buy at
// least 2.5x the single-coordinator drain rate.
const shardScalingFloor = 2.5

// scopedFenceFloor is the minimum untouched-shard throughput ratio of
// the footprint-scoped fence schedule over the fence-everything
// reference: traffic outside a global batch's footprint must run at
// least 1.5x faster than it would if every batch parked the cluster.
const scopedFenceFloor = 1.5

func main() {
	baselinePath := flag.String("baseline", "BENCH_pr10.json", "checked-in benchmark baseline")
	currentPath := flag.String("current", "", "freshly generated benchmark artifact to gate")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "bench-compare: -current is required")
		os.Exit(2)
	}

	baseline, err := bench.ReadJSON(*baselinePath)
	check(err)
	current, err := bench.ReadJSON(*currentPath)
	check(err)

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "bench-compare: FAIL: "+format+"\n", args...)
	}

	baseOn, err := baseline.FindContention("contention/fallback=on")
	check(err)
	baseOff, err := baseline.FindContention("contention/fallback=off")
	check(err)
	curOn, err := current.FindContention("contention/fallback=on")
	check(err)
	curOff, err := current.FindContention("contention/fallback=off")
	check(err)

	// 1. Commits-per-batch must not drop. Deterministic: a tiny epsilon
	// absorbs float formatting, not behavior.
	if curOn.CommitsPerBatch < baseOn.CommitsPerBatch*0.999 {
		fail("commits-per-batch dropped: %.2f (baseline %.2f) — the fallback no longer drains the chain in-batch",
			curOn.CommitsPerBatch, baseOn.CommitsPerBatch)
	}

	// 2. The on/off virtual-latency ratio must not regress > 15%.
	for _, m := range []struct {
		name          string
		baseOn, curOn float64
		baseOff       float64
		curOff        float64
	}{
		{"p50", baseOn.VirtualP50Ms, curOn.VirtualP50Ms, baseOff.VirtualP50Ms, curOff.VirtualP50Ms},
		{"p99", baseOn.VirtualP99Ms, curOn.VirtualP99Ms, baseOff.VirtualP99Ms, curOff.VirtualP99Ms},
	} {
		if m.baseOff <= 0 || m.curOff <= 0 {
			fail("%s: degenerate fallback-off latency (baseline %.3f, current %.3f)", m.name, m.baseOff, m.curOff)
			continue
		}
		baseRatio := m.baseOn / m.baseOff
		curRatio := m.curOn / m.curOff
		if curRatio > baseRatio*(1+tolerance) {
			fail("%s fallback-on/off latency ratio regressed: %.4f (baseline %.4f, tolerance %d%%)",
				m.name, curRatio, baseRatio, int(tolerance*100))
		}
		fmt.Printf("bench-compare: %s ratio on/off: %.4f (baseline %.4f)\n", m.name, curRatio, baseRatio)
	}

	// 3. Equivalence: both modes commit the full workload.
	if curOn.Commits != curOff.Commits {
		fail("fallback on/off commit counts diverge: %d vs %d", curOn.Commits, curOff.Commits)
	}
	if curOn.Commits != baseOn.Commits {
		fail("workload size changed: %d commits (baseline %d) — regenerate the baseline deliberately",
			curOn.Commits, baseOn.Commits)
	}

	fmt.Printf("bench-compare: commits/batch on=%.2f off=%.2f (baseline on=%.2f off=%.2f)\n",
		curOn.CommitsPerBatch, curOff.CommitsPerBatch, baseOn.CommitsPerBatch, baseOff.CommitsPerBatch)

	// 4. The pipelined epoch schedule's fsync merge, against the
	// baseline's serial (pipeline=off) row.
	syncsPerCommit := func(r bench.DlogRow) float64 {
		if r.Commits == 0 {
			return 0
		}
		return float64(r.LogSyncs) / float64(r.Commits)
	}
	baseSerial, err := baseline.FindDlog("coordinator-hotpath/dlog=on/pipeline=off")
	check(err)
	basePipe, err := baseline.FindDlog("coordinator-hotpath/dlog=on/pipeline=on")
	check(err)
	curPipe, err := current.FindDlog("coordinator-hotpath/dlog=on/pipeline=on")
	check(err)
	curSerial, err := current.FindDlog("coordinator-hotpath/dlog=on/pipeline=off")
	check(err)
	if syncsPerCommit(curPipe) <= 0 || syncsPerCommit(curSerial) <= 0 || syncsPerCommit(baseSerial) <= 0 {
		fail("degenerate dlog sync counts (pipelined %d/%d, serial %d/%d, baseline %d/%d)",
			curPipe.LogSyncs, curPipe.Commits, curSerial.LogSyncs, curSerial.Commits,
			baseSerial.LogSyncs, baseSerial.Commits)
	} else {
		merge := syncsPerCommit(baseSerial) / syncsPerCommit(curPipe)
		if merge < syncMergeFactor {
			fail("pipelined fsync merge regressed: %.2fx fewer syncs/commit than the serial baseline (need >= %.1fx)",
				merge, syncMergeFactor)
		}
		if curPipe.VirtualP50Ms > baseSerial.VirtualP50Ms*(1+tolerance) {
			fail("pipelined virtual p50 regressed vs serial baseline: %.3fms (baseline %.3fms, tolerance %d%%)",
				curPipe.VirtualP50Ms, baseSerial.VirtualP50Ms, int(tolerance*100))
		}
		curRatio := syncsPerCommit(curPipe) / syncsPerCommit(curSerial)
		baseRatio := syncsPerCommit(basePipe) / syncsPerCommit(baseSerial)
		if curRatio > baseRatio*(1+tolerance) {
			fail("pipeline on/off syncs-per-commit ratio regressed: %.4f (baseline %.4f, tolerance %d%%)",
				curRatio, baseRatio, int(tolerance*100))
		}
		if curRatio >= 1 {
			fail("pipelining no longer merges fsyncs: on/off syncs-per-commit ratio %.4f (must be < 1)", curRatio)
		}
		fmt.Printf("bench-compare: fsync merge %.2fx vs serial baseline; pipelined p50 %.3fms (serial baseline %.3fms); on/off syncs ratio %.4f\n",
			merge, curPipe.VirtualP50Ms, baseSerial.VirtualP50Ms, curRatio)
	}

	// 5. Sharded scaling.
	cur1, err := current.FindSharding(1)
	check(err)
	cur4, err := current.FindSharding(4)
	check(err)
	base1, err := baseline.FindSharding(1)
	check(err)
	base4, err := baseline.FindSharding(4)
	check(err)
	if cur1.TxnPerVirtualSec <= 0 || base1.TxnPerVirtualSec <= 0 {
		fail("degenerate 1-shard throughput (current %.0f, baseline %.0f)",
			cur1.TxnPerVirtualSec, base1.TxnPerVirtualSec)
	} else {
		scale := cur4.TxnPerVirtualSec / cur1.TxnPerVirtualSec
		baseScale := base4.TxnPerVirtualSec / base1.TxnPerVirtualSec
		if scale < shardScalingFloor {
			fail("4-shard scaling below floor: %.2fx the 1-shard throughput (need >= %.1fx)",
				scale, shardScalingFloor)
		}
		if scale < baseScale*(1-tolerance) {
			fail("4-shard scaling ratio regressed: %.2fx (baseline %.2fx, tolerance %d%%)",
				scale, baseScale, int(tolerance*100))
		}
		if cur4.GlobalTxns == 0 {
			fail("4-shard mix routed no global transactions — the cross-shard tail went unexercised")
		}
		fmt.Printf("bench-compare: sharded scaling 4/1: %.2fx (baseline %.2fx); 4-shard globals %d in %d batches\n",
			scale, baseScale, cur4.GlobalTxns, cur4.GlobalBatches)
	}

	// 6. Footprint-scoped fences.
	curScoped, err := current.FindScopedFence(false)
	check(err)
	curFull, err := current.FindScopedFence(true)
	check(err)
	baseScoped, err := baseline.FindScopedFence(false)
	check(err)
	baseFull, err := baseline.FindScopedFence(true)
	check(err)
	if curScoped.ScopedFences == 0 {
		fail("scoped-fence run recorded no scoped fences — every global batch fenced the whole cluster, the gate is vacuous")
	}
	if curFull.ScopedFences != 0 {
		fail("fence-everything reference recorded %d scoped fences — the reference schedule is no longer full-fence",
			curFull.ScopedFences)
	}
	if curFull.UntouchedTxnPerVirtualSec <= 0 || baseFull.UntouchedTxnPerVirtualSec <= 0 {
		fail("degenerate full-fence untouched throughput (current %.0f, baseline %.0f)",
			curFull.UntouchedTxnPerVirtualSec, baseFull.UntouchedTxnPerVirtualSec)
	} else {
		win := curScoped.UntouchedTxnPerVirtualSec / curFull.UntouchedTxnPerVirtualSec
		baseWin := baseScoped.UntouchedTxnPerVirtualSec / baseFull.UntouchedTxnPerVirtualSec
		if win < scopedFenceFloor {
			fail("scoped-fence untouched-shard win below floor: %.2fx the full-fence throughput (need >= %.1fx)",
				win, scopedFenceFloor)
		}
		if win < baseWin*(1-tolerance) {
			fail("scoped-fence untouched-shard win regressed: %.2fx (baseline %.2fx, tolerance %d%%)",
				win, baseWin, int(tolerance*100))
		}
		fmt.Printf("bench-compare: scoped-fence untouched win %.2fx (baseline %.2fx); %d scoped fences over %d global batches\n",
			win, baseWin, curScoped.ScopedFences, curScoped.GlobalBatches)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: %d check(s) failed against %s\n", failures, *baselinePath)
		os.Exit(1)
	}
	fmt.Println("bench-compare: PASS")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		os.Exit(1)
	}
}
